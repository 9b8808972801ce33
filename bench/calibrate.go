package main

import (
	"sort"
	"time"
)

// Host speed on a shared machine drifts by tens of percent within
// minutes, which moves every host-time reading of a run together. Before
// each unit of a pass the benchmark therefore times a fixed calibration
// kernel that shares no code with the simulator, and the run scales its
// host times by calibRef over the run's median calibration time: the
// reported seconds are seconds at the speed that runs the kernel in
// calibRef.
// Measured over 20-second windows of pairs passes on a 2-CPU host, the
// scaled time spread 8 % where the raw time spread 26 %.
const calibRef = 100 * time.Millisecond

// calibSink keeps the kernel's result live.
var calibSink int

// calibrate runs the kernel — fill, sort and hash-aggregate 300 000
// pseudo-random integers, three times — and returns its host time.
func calibrate() time.Duration {
	start := time.Now()
	for rep := 0; rep < 3; rep++ {
		x := uint64(88172645463325252)
		a := make([]int, 300_000)
		for i := range a {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			a[i] = int(x % 1_000_000)
		}
		sort.Ints(a)
		m := make(map[int]int, 1024)
		for i := 0; i < 200_000; i++ {
			m[a[i]%50_000] += i
		}
		calibSink += len(m)
	}
	return time.Since(start)
}

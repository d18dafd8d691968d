package main

import (
	"sync"
	"time"
)

// calibrationRefMS is a calibration round on the reference host (2-core
// Intel Xeon VM, go1.24) in one of its fast phases. Each op's times are
// scaled by calibrationRefMS over the calibrations around it, so they
// read as milliseconds on that host at that speed.
const calibrationRefMS = 2.5

// calibration is a fixed, benchmark-owned round of the kinds of work the
// workloads do: table-driven integer filtering in cache, and goroutine
// handoffs over unbuffered channels. The host this runs on is shared, and
// its speed drifts by tens of percent within minutes; timing this round
// next to every op measures the drift so it can be divided out. Of the
// mixes tried, this pair tracked all four workloads best; a walk over
// memory larger than the cache and two goroutines computing in parallel
// both made the scaled times noisier.
type calibration struct {
	table []int32
	taps  [16]int64
	in    []int64
	out   []int64
	sink  int64
}

const (
	calTable     = 1 << 14
	calHandoffs  = 2000
	calFilterRep = 8
)

func newCalibration() *calibration {
	c := &calibration{table: make([]int32, calTable), in: make([]int64, 1<<13), out: make([]int64, 1<<13)}
	x := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := range c.table {
		c.table[i] = int32(next())
	}
	for i := range c.taps {
		c.taps[i] = int64(next() % 64)
	}
	for i := range c.in {
		c.in[i] = int64(next() % calTable)
	}
	return c
}

// run does one round (about 2.5 ms on the reference host) and returns its
// wall time. The filter's tables are touched first: an op evicts them,
// and timing the refill would measure how much the op before polluted the
// cache, not the host.
func (c *calibration) run() time.Duration {
	var acc int64
	for i := range c.table {
		acc += int64(c.table[i])
	}
	for i := range c.in {
		acc += c.in[i] + c.out[i]
	}
	ping, pong := make(chan int), make(chan int)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for v := range ping {
			pong <- v + 1
		}
	}()

	t := time.Now()
	for rep := 0; rep < calFilterRep; rep++ {
		for i := len(c.taps); i < len(c.in); i++ {
			var s int64
			for k, h := range c.taps {
				s += h * int64(c.table[(c.in[i-k]+int64(k))&(calTable-1)])
			}
			c.out[i] = s >> 6
			acc += c.out[i]
		}
	}
	for i := 0; i < calHandoffs; i++ {
		ping <- i
		acc += int64(<-pong)
	}
	d := time.Since(t)

	close(ping)
	wg.Wait()
	c.sink += acc
	return d
}

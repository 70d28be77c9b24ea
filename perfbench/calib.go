package main

import (
	"math/bits"
	"time"
)

// The host this benchmark runs on is shared: a fixed single-threaded loop
// measured on it swings by up to 2x within a minute as neighbours come and
// go. Every host-time metric is therefore scaled by the host's speed,
// measured with the calibration kernel below right before and right after
// each measured window: a time t measured while the host ran at speed s
// (relative to the reference host) is reported as t*s, the time the same
// work would take on the reference host. The raw figures are printed too.
const (
	// calRef is the calibration kernel's speed, in passes per microsecond,
	// on the reference host: a 2-vCPU x86-64 container, Go 1.24, in a calm
	// period.
	calRef = 0.0145
	// calSlice is how long one speed reading runs the kernel.
	calSlice = 100 * time.Millisecond
)

// calSink keeps the kernel's result live so the compiler cannot drop it.
var calSink uint64

// calibrate runs a fixed single-threaded modular-arithmetic kernel over a
// cache-resident buffer for d and returns its passes per microsecond. It is
// the benchmark's own code, so no change to the program can move it.
func calibrate(d time.Duration) float64 {
	const q = 0x7fffd801 // a 31-bit prime
	buf := make([]uint64, 4096)
	for i := range buf {
		buf[i] = uint64(i) * 2654435761 % q
	}
	start := time.Now()
	n := 0
	var acc uint64 = 1
	for time.Since(start) < d {
		for i := 1; i < len(buf); i++ {
			hi, lo := bits.Mul64(buf[i], acc|1)
			_, r := bits.Div64(hi%q, lo, q)
			buf[i] = (r + buf[i-1]) % q
			acc = buf[i]
		}
		n++
	}
	calSink += acc
	return float64(n) / float64(time.Since(start).Microseconds())
}

// speedMeter brackets measured windows with speed readings.
type speedMeter struct {
	slice time.Duration
	last  float64
	seen  []float64 // every reading, relative to the reference host
}

func newSpeedMeter(slice time.Duration) *speedMeter {
	m := &speedMeter{slice: slice}
	m.last = m.read()
	return m
}

func (m *speedMeter) read() float64 {
	s := calibrate(m.slice) / calRef
	m.seen = append(m.seen, s)
	return s
}

// next takes a reading after a window and returns the window's speed: the
// mean of the readings on either side of it.
func (m *speedMeter) next() float64 {
	s := m.read()
	w := (m.last + s) / 2
	m.last = s
	return w
}

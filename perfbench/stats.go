package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return s[lo] + (s[hi]-s[lo])*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// sample is one timed observation: when it started and its value.
type sample struct {
	at time.Time
	v  float64
}

// slices is how many equal parts the measured window is cut into. A
// statistic is computed per part and the median of the parts reported, so
// a burst of load from outside the benchmark that covers a minority of the
// window moves the result little; and the parts are short (1.5 s of a
// 45 s window), so the speed probe's reading in a part is the host's speed
// at that moment. It is even so station can alternate slices with and
// without reads.
const slices = 30

// sliceSet selects slices of the window by index; nil selects all.
type sliceSet func(i int) bool

func (s sliceSet) has(i int) bool { return s == nil || s(i) }

// sliceOf returns the index of the slice of [from, to) that t falls in, or
// -1 when t is outside the window.
func sliceOf(t, from, to time.Time) int {
	if t.Before(from) || !t.Before(to) {
		return -1
	}
	i := int(t.Sub(from) / (to.Sub(from) / slices))
	if i >= slices {
		i = slices - 1
	}
	return i
}

// slicedQuantile returns the median over the selected slices of each
// slice's q-quantile of the samples that started in it, divided by the
// slice's entry of div when div is not nil.
func slicedQuantile(xs []sample, from, to time.Time, sel sliceSet, q float64, div []float64) float64 {
	parts := make([][]float64, slices)
	for _, s := range xs {
		if i := sliceOf(s.at, from, to); i >= 0 && sel.has(i) {
			parts[i] = append(parts[i], s.v)
		}
	}
	per := make([]float64, 0, slices)
	for i, p := range parts {
		if len(p) == 0 {
			continue
		}
		v := quantile(p, q)
		if div != nil {
			v /= div[i]
		}
		per = append(per, v)
	}
	return median(per)
}

// slicedRate returns the median over the selected slices of events per
// second, each slice's rate taken between its first and last event so the
// value carries the measurement's own resolution.
func slicedRate(ts []time.Time, from, to time.Time, sel sliceSet) float64 {
	parts := make([][]time.Time, slices)
	for _, t := range ts {
		if i := sliceOf(t, from, to); i >= 0 && sel.has(i) {
			parts[i] = append(parts[i], t)
		}
	}
	per := make([]float64, 0, slices)
	for _, p := range parts {
		if len(p) < 2 {
			continue
		}
		sort.Slice(p, func(a, b int) bool { return p[a].Before(p[b]) })
		per = append(per, float64(len(p)-1)/p[len(p)-1].Sub(p[0]).Seconds())
	}
	return median(per)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ms and us convert a duration to float milliseconds / microseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// cpuTime is the CPU time (user + system) this process has used. Time the
// hypervisor gives other tenants is not in it, which is why most bounded
// metrics are CPU cost per unit of work rather than wall-clock rates.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// clockThreadCPUTimeID is Linux's CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTimeID = 3

// threadCPUTime is the CPU time the calling OS thread has used. A goroutine
// that called runtime.LockOSThread reads its own CPU time with it.
func threadCPUTime() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// runtimeSample reads the process-wide allocation counters and the live
// heap through runtime/metrics, which does not stop the world.
type runtimeSample struct {
	allocObjects, allocBytes, heapBytes uint64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/memory/classes/heap/objects:bytes",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(i int) uint64 {
		if s[i].Value.Kind() == metrics.KindUint64 {
			return s[i].Value.Uint64()
		}
		return 0
	}
	return runtimeSample{allocObjects: val(0), allocBytes: val(1), heapBytes: val(2)}
}

// sampler calls fn every period on its own goroutine until stop returns.
type sampler struct {
	stopCh chan struct{}
	wg     sync.WaitGroup
}

func startSampler(period time.Duration, fn func()) *sampler {
	s := &sampler{stopCh: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			fn()
			select {
			case <-s.stopCh:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

func (s *sampler) stop() {
	close(s.stopCh)
	s.wg.Wait()
}

// heapPeak tracks the peak live heap while it runs.
type heapPeak struct {
	mu   sync.Mutex
	peak uint64
	s    *sampler
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{}
	h.s = startSampler(20*time.Millisecond, func() {
		b := readRuntime().heapBytes
		h.mu.Lock()
		if b > h.peak {
			h.peak = b
		}
		h.mu.Unlock()
	})
	return h
}

// stopMB stops sampling and returns the peak in MiB.
func (h *heapPeak) stopMB() float64 {
	h.s.stop()
	h.mu.Lock()
	defer h.mu.Unlock()
	return float64(h.peak) / (1 << 20)
}

// setLatency sets a median (over the selected slices) and a p99 (over the
// selected slices together, where it has the most samples beyond it) of the
// samples that started in [from, to).
func (b *bench) setLatency(p50, p99 string, xs []sample, from, to time.Time, sel sliceSet) {
	var vs []float64
	for _, s := range xs {
		if i := sliceOf(s.at, from, to); i >= 0 && sel.has(i) {
			vs = append(vs, s.v)
		}
	}
	b.set(p50, slicedQuantile(xs, from, to, sel, 0.5, nil))
	b.set(p99, quantile(vs, 0.99))
}

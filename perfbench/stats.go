package main

import (
	"math"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// percentile returns the nearest-rank q-quantile (0 < q ≤ 1) of xs, which
// it sorts in place: the smallest value with at least q·n values at or
// below it. An empty sample yields 0.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if !sort.Float64sAreSorted(xs) {
		sort.Float64s(xs)
	}
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// median is the middle value of xs (the mean of the two middle values for
// an even count); it sorts xs in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// coldCPU returns the process CPU time f takes, started on a cold heap:
// debug.FreeOSMemory first collects every earlier allocation and returns
// the free pages to the OS, so f faults its memory in afresh each time
// instead of reusing whichever pages the background scavenger happened
// to keep — which, with the collections f's allocations trigger, is what
// made set-up times of the same code differ twofold.
func coldCPU(f func()) time.Duration {
	debug.FreeOSMemory()
	c0 := cpuTime()
	f()
	return cpuTime() - c0
}

// clockProcessCPUTime is Linux's CLOCK_PROCESS_CPUTIME_ID.
const clockProcessCPUTime = 2

// cpuTime is the process's user plus system CPU time so far, to the
// nanosecond (getrusage reports whole microseconds, too coarse for a
// set-up of a few hundred).
func cpuTime() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// goSample is a reading of the Go runtime's counters.
type goSample struct {
	gcCPU, totalCPU float64
	allocs, allocB  uint64
	schedLat        *metrics.Float64Histogram
	cpu             time.Duration
}

var goMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/sched/latencies:seconds",
}

func readGo() goSample {
	ms := make([]metrics.Sample, len(goMetricNames))
	for i, n := range goMetricNames {
		ms[i].Name = n
	}
	metrics.Read(ms)
	s := goSample{cpu: cpuTime()}
	if ms[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = ms[0].Value.Float64()
	}
	if ms[1].Value.Kind() == metrics.KindFloat64 {
		s.totalCPU = ms[1].Value.Float64()
	}
	if ms[2].Value.Kind() == metrics.KindUint64 {
		s.allocs = ms[2].Value.Uint64()
	}
	if ms[3].Value.Kind() == metrics.KindUint64 {
		s.allocB = ms[3].Value.Uint64()
	}
	if ms[4].Value.Kind() == metrics.KindFloat64Histogram {
		h := ms[4].Value.Float64Histogram()
		s.schedLat = &metrics.Float64Histogram{
			Counts:  append([]uint64(nil), h.Counts...),
			Buckets: append([]float64(nil), h.Buckets...),
		}
	}
	return s
}

// goDelta is what the Go runtime did between two samples.
type goDelta struct {
	gcFrac        float64 // GC CPU over all CPU the runtime accounted
	schedP99      time.Duration
	allocs, bytes uint64
	cpu           time.Duration
}

func (a goSample) to(b goSample) goDelta {
	d := goDelta{
		allocs: b.allocs - a.allocs,
		bytes:  b.allocB - a.allocB,
		cpu:    b.cpu - a.cpu,
	}
	if tot := b.totalCPU - a.totalCPU; tot > 0 {
		d.gcFrac = (b.gcCPU - a.gcCPU) / tot
	}
	if a.schedLat != nil && b.schedLat != nil && len(a.schedLat.Counts) == len(b.schedLat.Counts) {
		d.schedP99 = histQuantile(a.schedLat, b.schedLat, 0.99)
	}
	return d
}

// histQuantile returns the q-quantile of the samples added to a runtime
// histogram between readings a and b, as the upper edge of the bucket
// holding it (the lower edge where the upper one is infinite).
func histQuantile(a, b *metrics.Float64Histogram, q float64) time.Duration {
	var total uint64
	for i := range b.Counts {
		total += b.Counts[i] - a.Counts[i]
	}
	if total == 0 {
		return 0
	}
	want := uint64(math.Ceil(q * float64(total)))
	var seen uint64
	for i := range b.Counts {
		seen += b.Counts[i] - a.Counts[i]
		if seen >= want {
			edge := b.Buckets[i+1]
			if math.IsInf(edge, 1) {
				edge = b.Buckets[i]
			}
			return time.Duration(edge * float64(time.Second))
		}
	}
	return 0
}

// heapPeak samples the live heap objects' size until stopped and keeps the
// largest reading: the peak the run needed, within the sampling period.
type heapPeak struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

const heapSamplePeriod = 5 * time.Millisecond

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tk := time.NewTicker(heapSamplePeriod)
		defer tk.Stop()
		for {
			metrics.Read(s)
			if s[0].Value.Kind() == metrics.KindUint64 {
				h.peak = max(h.peak, s[0].Value.Uint64())
			}
			select {
			case <-h.stop:
				return
			case <-tk.C:
			}
		}
	}()
	return h
}

// done stops the sampler and returns the peak in MiB.
func (h *heapPeak) done() float64 {
	close(h.stop)
	h.wg.Wait()
	return float64(h.peak) / (1 << 20)
}

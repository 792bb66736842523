package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// wallNow is the single wall-clock seam of the benchmark. Everything else in
// the repository runs on sim.Meter virtual time; this program exists to put
// measured time next to it.
func wallNow() time.Time {
	return time.Now() //repolint:determinism wall clock is the measurement
}

// sinceSec returns the wall seconds elapsed since t0.
func sinceSec(t0 time.Time) float64 { return wallNow().Sub(t0).Seconds() }

// quantile returns the q-quantile (0..1) of vs by linear interpolation
// between order statistics; vs need not be sorted. Empty input yields NaN so
// a missing sample can never read as a fast one.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(vs []float64) float64 { return quantile(vs, 0.5) }

func mean(vs []float64) float64 {
	var sum float64
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// refNominalSec is what the reference kernel takes on the quiet 2-core box
// the workloads were sized on. It only fixes the unit: a host-corrected time
// is "seconds on a host that runs the kernel in refNominalSec".
const refNominalSec = 0.055

// refWork scales the length of the reference kernel. Only the smoke test
// changes it, to stay short under the race detector.
var refWork = 1.0

// refSample is one run of the reference kernel: its wall seconds and the CPU
// seconds of the thread that ran it.
type refSample struct{ wall, cpu float64 }

// hostRef is the reference kernel: a fixed piece of single-threaded work that
// touches no code of the repository. The host this benchmark must run on is a
// small VM whose speed changes by a third from minute to minute (the kernel's
// own CPU time does). Whatever slows the kernel at a given moment slows the
// operation measured next to it, so the loop runs the kernel between
// operations and reports times relative to it. Its three phases load what the
// workloads load: the core (xorshift steps into a table that fits the L1
// cache), memory bandwidth (read-modify-write passes over streamBytes) and
// memory latency (dependent loads around one random cycle through
// chaseBytes). README.md has the measurements behind this choice.
//
// The two buffers are mapped outside the Go heap, so that the collector of
// the program under test paces itself as it would without the benchmark;
// peak_rss_mb subtracts them.
type hostRef struct {
	stream []uint64
	chase  []uint32
	maps   [][]byte // what close unmaps
	sink   uint64   // keeps the kernel's results live
}

const (
	streamBytes = 16 << 20
	chaseBytes  = 16 << 20
)

func mapAnon(bytes int) ([]byte, error) {
	return syscall.Mmap(-1, 0, bytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
}

func newHostRef() (*hostRef, error) {
	sb, err := mapAnon(streamBytes)
	if err != nil {
		return nil, fmt.Errorf("map the reference kernel's buffers: %w", err)
	}
	cb, err := mapAnon(chaseBytes)
	if err != nil {
		_ = syscall.Munmap(sb) // the mapping error is the one to report
		return nil, fmt.Errorf("map the reference kernel's buffers: %w", err)
	}
	h := &hostRef{
		maps:   [][]byte{sb, cb},
		stream: unsafe.Slice((*uint64)(unsafe.Pointer(&sb[0])), streamBytes/8),
		chase:  unsafe.Slice((*uint32)(unsafe.Pointer(&cb[0])), chaseBytes/4),
	}
	// One cycle through every slot in a fixed pseudo-random order (Sattolo's
	// shuffle), so that each load depends on the one before it and misses
	// the caches.
	for i := range h.chase {
		h.chase[i] = uint32(i)
	}
	x := uint64(88172645463325252)
	for i := len(h.chase) - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i))
		h.chase[i], h.chase[j] = h.chase[j], h.chase[i]
	}
	for i := range h.stream {
		h.stream[i] = uint64(i)
	}
	return h, nil
}

func (h *hostRef) close() error {
	var err error
	for _, m := range h.maps {
		if e := syscall.Munmap(m); err == nil {
			err = e
		}
	}
	h.maps, h.stream, h.chase = nil, nil, nil
	return err
}

// run executes the kernel once. The thread is pinned so that RUSAGE_THREAD
// reads the kernel's CPU time and not a share of the collector's or the
// daemon's.
func (h *hostRef) run() refSample {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c0 := threadCPUSec()
	t0 := wallNow()

	x := uint64(88172645463325252)
	var table [1 << 12]uint64
	for i, n := 0, int(10_000_000*refWork); i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		table[x&(1<<12-1)] += x
	}
	sum := table[7] + x
	for pass, n := 0, max(1, int(6*refWork)); pass < n; pass++ {
		for i := range h.stream {
			sum += h.stream[i]
			h.stream[i] = sum
		}
	}
	at := uint32(sum) % uint32(len(h.chase))
	for i, n := 0, int(110_000*refWork); i < n; i++ {
		at = h.chase[at]
	}
	h.sink += sum + uint64(at)

	return refSample{wall: sinceSec(t0), cpu: threadCPUSec() - c0}
}

func rusageCPUSec(who int) float64 {
	var ru syscall.Rusage
	// Getrusage cannot fail with a valid who and pointer.
	_ = syscall.Getrusage(who, &ru)
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

func threadCPUSec() float64 {
	const rusageThread = 1 // RUSAGE_THREAD; package syscall does not name it
	return rusageCPUSec(rusageThread)
}

// refSeries is the reference kernel's samples in the order they ran. Segment
// k is the stretch of measured work between samples k and k+1.
type refSeries []refSample

// factors returns what turns a wall time and a CPU time measured in segment k
// into host-corrected time: the nominal kernel time over the median of the
// four samples nearest the segment (two before it, two after). One sample is
// 55 ms of work and a burst of stolen time can triple it, so a single pair
// would pass the burst on to every operation next to it.
func (r refSeries) factors(k int) (wall, cpu float64) {
	near := r[max(0, k-1):min(len(r), k+3)]
	walls, cpus := make([]float64, len(near)), make([]float64, len(near))
	for i, s := range near {
		walls[i], cpus[i] = s.wall, s.cpu
	}
	return refNominalSec / median(walls), refNominalSec / median(cpus)
}

// probeBudget is how long and how often a layer probe of a traced run
// repeats its call; the smoke test shrinks both.
type probeBudget struct {
	minDur  time.Duration
	minReps int
}

var defaultProbeBudget = probeBudget{minDur: 250 * time.Millisecond, minReps: 3}

// repeat calls fn until it has run at least minReps times and for at least
// minDur in total, and returns the median seconds per call. It is how every
// layer probe turns one exported entry point into a steady rate.
func (b probeBudget) repeat(fn func() error) (float64, error) {
	var secs []float64
	start := wallNow()
	for len(secs) < b.minReps || wallNow().Sub(start) < b.minDur {
		t0 := wallNow()
		if err := fn(); err != nil {
			return 0, err
		}
		secs = append(secs, sinceSec(t0))
	}
	return median(secs), nil
}

// usage is the process-wide resource reading taken at operation boundaries:
// CPU from getrusage, allocation and GC totals from the runtime. The daemon
// of the serve workloads runs in this process, so its share is included.
type usage struct {
	cpuSec     float64
	allocBytes uint64
	mallocs    uint64
	gcCycles   uint32
	gcPauseNS  uint64
}

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		cpuSec:     rusageCPUSec(syscall.RUSAGE_SELF),
		allocBytes: ms.TotalAlloc,
		mallocs:    ms.Mallocs,
		gcCycles:   ms.NumGC,
		gcPauseNS:  ms.PauseTotalNs,
	}
}

// add accumulates the delta between two readings into u.
func (u *usage) add(from, to usage) {
	u.cpuSec += to.cpuSec - from.cpuSec
	u.allocBytes += to.allocBytes - from.allocBytes
	u.mallocs += to.mallocs - from.mallocs
	u.gcCycles += to.gcCycles - from.gcCycles
	u.gcPauseNS += to.gcPauseNS - from.gcPauseNS
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM), less
// the reference kernel's buffers, which are resident from its first run on.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
		}
		return kb/1024 - float64(streamBytes+chaseBytes)/(1<<20), nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

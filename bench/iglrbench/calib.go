package main

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// The host's speed drifts. On the shared virtual machine the benchmark was
// written on, the same work's CPU time rose and fell by 20 to 60% over
// seconds to minutes with almost no CPU steal: the processor itself ran
// slower while other tenants loaded the machine. Neither wall time nor CPU
// time can tell that apart from a slower program. So every run also times
// a calibration kernel, code of the benchmark's own that no change to the
// library touches, at regular points through its set-up and timed phase,
// and states the gated times at a fixed reference speed: each measured
// time is multiplied by calibRef over the median of the calibWindow kernel
// times taken nearest to it. A change to the library leaves the kernel's
// time alone, so it moves the stated times in full; the host slowing down
// slows the kernel too, and cancels out. The speed is taken near each time
// rather than once per run because the host often switches between a fast
// and a slow state within seconds: a run-wide median then states the fast
// state, and the ops of the slow one, which make up the tail, stayed slow.
//
// The kernel has to slow down as much as the library does. Kernels of
// several kinds were timed next to edit_small over runs on a drifting
// host. Pointer chases over 2 and 32 MB slowed by about half as much as
// the edits (the log of the edits' median rose 1.6 to 2.9 times as fast as
// the log of theirs), clearing or filling 32 MB varied on its own, and
// independent integer arithmetic slowed half again as much. Branchy
// integer code on data in the core's cache, a lexer's byte-class loop and
// a sort, slowed as much as the edits (slopes 1.08 and 1.15), which are
// the same kind of code. So that is the kernel. Its data is mapped outside
// the Go heap and it allocates nothing, so the collector neither scans it
// nor runs more or less often because of it. Some host states still slow
// the edits more than the kernel; memory-bandwidth and memory-latency
// kernels, alone or blended with this one, did not track them better
// (bench/README.md, "What it does not correct").

// calibRef is the kernel's median CPU time on the reference host (a
// 2-vCPU KVM guest, Intel Xeon model 207, go1.24.0), measured while the
// host was quiet. Stated times read as that host's times at that speed.
const calibRef = 4 * time.Millisecond

// calibEvery is how much wall time passes between two calibrations during
// set-up and the timed phase; calibBookends more are taken before and
// after the workload. A time is set against the calibWindow kernel times
// nearest to it, about half a second of the run.
const (
	calibEvery    = 100 * time.Millisecond
	calibBookends = 5
	calibWindow   = 5
)

const (
	calibText = 256 << 10 // bytes of C-like text the kernel scans
	calibKeys = 1 << 15   // keys it sorts
)

// calibrator holds the kernel's data and the times it measured.
type calibrator struct {
	mem           []byte
	text          []byte
	keys, scratch []uint32
	// times are the kernel's times and at when each was taken.
	times []time.Duration
	at    []time.Time
	// sum keeps the kernel's results live.
	sum uint64
}

func newCalibrator() (*calibrator, error) {
	mem, err := syscall.Mmap(-1, 0, calibText+2*calibKeys*4, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		return nil, fmt.Errorf("calibration memory: %w", err)
	}
	c := &calibrator{mem: mem, text: mem[:0:calibText]}
	keys := mem[calibText : calibText+calibKeys*4]
	scratch := mem[calibText+calibKeys*4:]
	c.keys = unsafe.Slice((*uint32)(unsafe.Pointer(&keys[0])), calibKeys)
	c.scratch = unsafe.Slice((*uint32)(unsafe.Pointer(&scratch[0])), calibKeys)

	rng := rand.New(rand.NewSource(1))
	words := []string{"int ", "x", "y1", "count", "(", ")", "{", "}", ";", " = ", "+", "return ",
		"42", "\n", "if ", "while ", "/* note */", `"text"`, "\t", "->"}
	for {
		w := words[rng.Intn(len(words))]
		if len(c.text)+len(w) > calibText {
			break
		}
		c.text = append(c.text, w...)
	}
	for i := range c.keys {
		c.keys[i] = rng.Uint32()
	}
	return c, nil
}

// close unmaps the kernel's memory.
func (c *calibrator) close() { syscall.Munmap(c.mem) }

// kernel runs the calibration work once: a byte-class state machine over
// the text, counting tokens the way a lexer's inner loop does, then a sort
// of the keys.
func (c *calibrator) kernel() {
	toks, state := 0, 0
	for _, b := range c.text {
		switch {
		case b >= 'a' && b <= 'z' || b >= 'A' && b <= 'Z' || b == '_':
			if state != 1 {
				toks++
			}
			state = 1
		case b >= '0' && b <= '9':
			if state != 1 && state != 2 {
				toks++
				state = 2
			}
		case b == ' ' || b == '\n' || b == '\t':
			state = 0
		default:
			toks++
			state = 3
		}
	}
	copy(c.scratch, c.keys)
	slices.Sort(c.scratch)
	c.sum += uint64(toks) + uint64(c.scratch[calibKeys/2])
}

// measure times the kernel once by the process's CPU clock.
func (c *calibrator) measure() {
	c0 := cpuTime()
	c.kernel()
	c.times = append(c.times, cpuTime()-c0)
	c.at = append(c.at, time.Now())
}

// due reports whether calibEvery has passed since the last calibration.
func (c *calibrator) due() bool {
	return len(c.at) == 0 || time.Since(c.at[len(c.at)-1]) >= calibEvery
}

// scale states the times ds, begun at ats, at the reference speed.
func (c *calibrator) scale(ds []time.Duration, ats []time.Time) []time.Duration {
	out := make([]time.Duration, len(ds))
	for j, d := range ds {
		i := sort.Search(len(c.at), func(i int) bool { return !c.at[i].Before(ats[j]) })
		lo := max(0, min(i-calibWindow/2, len(c.times)-calibWindow))
		hi := min(len(c.times), lo+calibWindow)
		out[j] = time.Duration(float64(d) * float64(calibRef) / float64(medianDur(c.times[lo:hi])))
	}
	return out
}

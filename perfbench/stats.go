package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// minTail is how many samples must lie beyond a percentile before the
// benchmark reports it: a p95 over fewer than ten tail samples is one
// or two outliers, not a percentile.
const minTail = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs. It
// refuses — ok false — when fewer than minTail samples lie beyond the
// chosen rank. xs need not be sorted; it is not modified.
func percentile(xs []float64, p float64) (v float64, ok bool) {
	n := len(xs)
	if n == 0 || p <= 0 || p >= 1 {
		return 0, false
	}
	rank := int(math.Ceil(p * float64(n))) // 1-based nearest rank
	if n-rank < minTail {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], true
}

// minSamplesFor is the smallest sample count for which percentile(_, p)
// reports.
func minSamplesFor(p float64) int {
	n := 1
	for n-int(math.Ceil(p*float64(n))) < minTail {
		n++
	}
	return n
}

// median is the middle value (mean of the middle two for even counts).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// tally counts operations of one kind. An operation fails when the call
// errors, the server answers with a non-2xx status, or a correctness
// check rejects the output; each attempt counts once however many of
// those happen to it.
type tally struct {
	attempted int
	failed    int
	lat       []float64 // milliseconds, successful operations only
}

// record adds one attempt: err is nil for a correct operation, whose
// latency then joins the sample.
func (t *tally) record(lat time.Duration, err error) {
	t.attempted++
	if err != nil {
		t.failed++
		return
	}
	t.lat = append(t.lat, ms(lat))
}

// failedShare is failed over attempted (0 with nothing attempted).
func (t *tally) failedShare() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// ops collects tallies per operation kind from concurrent clients.
type ops struct {
	mu    sync.Mutex
	kinds map[string]*tally
}

func newOps() *ops { return &ops{kinds: map[string]*tally{}} }

func (o *ops) record(kind string, lat time.Duration, err error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	t := o.kinds[kind]
	if t == nil {
		t = &tally{}
		o.kinds[kind] = t
	}
	t.record(lat, err)
	if err != nil {
		logf("%s failed: %v", kind, err)
	}
}

// correct returns how many operations of kind succeeded so far.
func (o *ops) correct(kind string) int {
	o.mu.Lock()
	defer o.mu.Unlock()
	if t := o.kinds[kind]; t != nil {
		return len(t.lat)
	}
	return 0
}

// get returns the tally for kind (empty if never recorded). Call it
// once recording has stopped.
func (o *ops) get(kind string) *tally {
	o.mu.Lock()
	defer o.mu.Unlock()
	if t := o.kinds[kind]; t != nil {
		return t
	}
	return &tally{}
}

// statusErr turns a non-2xx HTTP status into an error.
func statusErr(code int, body []byte) error {
	if code >= 200 && code < 300 {
		return nil
	}
	if len(body) > 200 {
		body = body[:200]
	}
	return fmt.Errorf("HTTP %d: %s", code, strings.TrimSpace(string(body)))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// peakRSSMB reads the process's peak resident set size (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("read peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			break
		}
		kb, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Offsets are from the
// recorder's epoch; parent is the index of the causing span (-1 for a
// root). A root and its descendants form one operation's trace and
// share its index as their trace identifier.
type span struct {
	Name   string        `json:"name"`
	Parent int           `json:"parent"`
	Trace  int           `json:"trace"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	// Bytes counts the payload a span processed, for byte rates.
	Bytes int64 `json:"bytes,omitempty"`
}

// recorder keeps spans in memory until the benchmark ends. A nil
// recorder records nothing, so untraced runs pay one nil check per
// boundary.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// add records a finished span and returns its index (-1 on a nil
// recorder).
func (r *recorder) add(name string, parent int, start, end time.Time) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	trace := id
	if parent >= 0 {
		trace = r.spans[parent].Trace
	}
	r.spans = append(r.spans, span{Name: name, Parent: parent, Trace: trace,
		Start: start.Sub(r.epoch), End: end.Sub(r.epoch)})
	return id
}

// begin opens a span at t0; finish closes it. Children may be added in
// between, since they need the parent's index.
func (r *recorder) begin(name string, parent int, t0 time.Time) int {
	return r.add(name, parent, t0, t0)
}

func (r *recorder) finish(id int, t1 time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].End = t1.Sub(r.epoch)
}

// setBytes records how many bytes span id processed.
func (r *recorder) setBytes(id int, n int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].Bytes = int64(n)
}

// timed runs fn and records it as a child of parent.
func (r *recorder) timed(name string, parent int, fn func() error) (int, error) {
	t0 := time.Now()
	err := fn()
	return r.add(name, parent, t0, time.Now()), err
}

// replay lays out spans for calls the benchmark re-executes after the
// operation it explains. The handler ran the same layer calls inside the
// root's interval, but only their durations are known from outside, so
// they are placed back to back from the parent's start, in handler
// order.
type replay struct {
	r      *recorder
	parent int
	cursor time.Time
}

func (r *recorder) replayUnder(parent int) *replay {
	if r == nil {
		return &replay{parent: -1}
	}
	r.mu.Lock()
	start := r.epoch.Add(r.spans[parent].Start)
	r.mu.Unlock()
	return &replay{r: r, parent: parent, cursor: start}
}

// call times fn for real and records its duration at the cursor. It
// returns the new span's index so nested replays can hang under it.
func (p *replay) call(name string, fn func() error) (int, error) {
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	return p.place(name, d), err
}

// place records a span of duration d at the cursor.
func (p *replay) place(name string, d time.Duration) int {
	id := p.r.add(name, p.parent, p.cursor, p.cursor.Add(d))
	p.cursor = p.cursor.Add(d)
	return id
}

// selfTimes returns each span's duration minus the length of the union
// of its children's intervals, so overlapping children count once.
// Replayed children are not clipped to their parent: when a replay runs
// slower than the call it explains, the parent's self time goes
// negative. Where a parent's children do not overlap, the self times of
// a tree therefore add up to its root's duration exactly.
func selfTimes(spans []span) []time.Duration {
	kids := make([][][2]time.Duration, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]time.Duration{s.Start, s.End})
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = (s.End - s.Start) - unionLen(kids[i])
	}
	return out
}

// unionLen is the total length covered by a set of intervals.
func unionLen(ivs [][2]time.Duration) time.Duration {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total time.Duration
	var curA, curB time.Duration
	open := false
	for _, iv := range ivs {
		if open && iv[0] <= curB {
			curB = max(curB, iv[1])
			continue
		}
		if open {
			total += curB - curA
		}
		curA, curB, open = iv[0], iv[1], true
	}
	if open {
		total += curB - curA
	}
	return total
}

// write saves the spans as JSON lines.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

package main

import (
	"testing"
	"time"
)

func sp(name string, parent int, start, end time.Duration) span {
	return span{Name: name, Parent: parent, Start: start, End: end}
}

func TestSelfTimeCountsOverlapOnce(t *testing.T) {
	spans := []span{
		sp("root", -1, 0, 100),
		sp("a", 0, 10, 40),
		sp("b", 0, 30, 60), // overlaps a over [30, 40]
		sp("a.child", 1, 10, 20),
	}
	self := selfTimes(spans)
	want := []time.Duration{50, 20, 30, 10}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self(%s) = %v, want %v", spans[i].Name, self[i], want[i])
		}
	}
}

func TestSelfTimeOverrunningReplay(t *testing.T) {
	// A replayed child slower than its parent: the parent's self time
	// goes negative and the tree still sums to the root's duration.
	spans := []span{
		sp("root", -1, 0, 10),
		sp("x", 0, 0, 6),
		sp("y", 0, 6, 15),
	}
	self := selfTimes(spans)
	if self[0] != -5 {
		t.Fatalf("root self %v, want -5", self[0])
	}
	var sum time.Duration
	for _, d := range self {
		sum += d
	}
	if sum != 10 {
		t.Fatalf("self times sum to %v, want the root's 10", sum)
	}
}

func TestReplayPlacesChildrenBackToBack(t *testing.T) {
	r := newRecorder()
	t0 := r.epoch.Add(time.Second)
	root := r.add("root", -1, t0, t0.Add(time.Second))
	rp := r.replayUnder(root)
	a := rp.place("a", 3*time.Millisecond)
	b := rp.place("b", 5*time.Millisecond)
	if r.spans[a].Start != time.Second || r.spans[a].End != time.Second+3*time.Millisecond {
		t.Fatalf("a at [%v, %v], want to start at the root", r.spans[a].Start, r.spans[a].End)
	}
	if r.spans[b].Start != r.spans[a].End || r.spans[b].End-r.spans[b].Start != 5*time.Millisecond {
		t.Fatalf("b at [%v, %v], want right after a", r.spans[b].Start, r.spans[b].End)
	}
	if r.spans[b].Trace != root || r.spans[b].Parent != root {
		t.Fatal("replayed spans must join the root's trace")
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var r *recorder
	ran := false
	id, err := r.timed("x", -1, func() error { ran = true; return nil })
	if !ran || id != -1 || err != nil {
		t.Fatalf("nil recorder: ran %t id %d err %v", ran, id, err)
	}
	r.finish(r.begin("y", -1, time.Now()), time.Now())
	r.setBytes(-1, 10)
	if _, err := r.replayUnder(-1).call("z", func() error { return nil }); err != nil {
		t.Fatal(err)
	}
}

package serve

import (
	"errors"
	"testing"
	"time"
)

// TestFlightPanicReleasesKey: a computation that panics must not wedge
// its key. A caller that joined the flight gets an error instead of
// blocking forever, the panic still reaches the computing caller, and a
// later Do on the same key runs its function again.
func TestFlightPanicReleasesKey(t *testing.T) {
	var g flightGroup[string, []byte]
	release := make(chan struct{})
	started := make(chan struct{})
	joined := make(chan struct{})

	panicked := make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		g.Do("k", nil, func() ([]byte, error) {
			close(started)
			<-release
			panic("boom")
		})
	}()
	<-started

	type result struct {
		data []byte
		err  error
	}
	waiter := make(chan result, 1)
	go func() {
		data, err := g.Do("k", func() { close(joined) }, func() ([]byte, error) {
			t.Error("joined caller ran its own computation")
			return nil, nil
		})
		waiter <- result{data, err}
	}()
	<-joined
	close(release)

	select {
	case p := <-panicked:
		if p != "boom" {
			t.Fatalf("computing caller recovered %v, want the original panic", p)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("computing caller never returned")
	}
	select {
	case r := <-waiter:
		if !errors.Is(r.err, errFlightPanicked) || r.data != nil {
			t.Fatalf("joined caller got (%q, %v), want errFlightPanicked", r.data, r.err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("joined caller is still blocked on the panicked flight")
	}

	done := make(chan result, 1)
	go func() {
		data, err := g.Do("k", nil, func() ([]byte, error) { return []byte("again"), nil })
		done <- result{data, err}
	}()
	select {
	case r := <-done:
		if r.err != nil || string(r.data) != "again" {
			t.Fatalf("Do after the panic = (%q, %v), want a fresh computation", r.data, r.err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("key is still held after the panicked flight")
	}
}

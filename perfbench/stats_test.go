package main

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: percentile must sort a copy
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	xs := seq(200)
	v, ok := percentile(xs, 0.95)
	if !ok || v != 190 {
		t.Fatalf("p95 of 1..200 = %v, %v; want 190, true", v, ok)
	}
	if xs[0] != 200 {
		t.Fatal("percentile reordered its input")
	}
	if v, ok := percentile(seq(20), 0.5); !ok || v != 10 {
		t.Fatalf("p50 of 1..20 = %v, %v; want 10, true", v, ok)
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	// 199 samples put the p95 at rank 190 with only 9 samples beyond it.
	if _, ok := percentile(seq(199), 0.95); ok {
		t.Fatal("p95 reported with 9 samples beyond it")
	}
	if _, ok := percentile(seq(19), 0.5); ok {
		t.Fatal("p50 reported with 9 samples beyond it")
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Fatal("percentile of no samples reported")
	}
	if got := minSamplesFor(0.95); got != 200 {
		t.Fatalf("minSamplesFor(0.95) = %d, want 200", got)
	}
	if got := minSamplesFor(0.5); got != 20 {
		t.Fatalf("minSamplesFor(0.5) = %d, want 20", got)
	}
}

func TestFailedShareAccounting(t *testing.T) {
	var tl tally
	tl.record(2*time.Millisecond, nil)
	tl.record(4*time.Millisecond, nil)
	tl.record(time.Millisecond, statusErr(500, []byte("boom")))              // non-2xx
	tl.record(time.Millisecond, errors.New("report bytes differ"))           // failed check
	tl.record(time.Millisecond, errors.Join(nil, errors.New("second half"))) // one failure per attempt
	if tl.attempted != 5 || tl.failed != 3 {
		t.Fatalf("attempted %d failed %d, want 5 and 3", tl.attempted, tl.failed)
	}
	if got := tl.failedShare(); got != 0.6 {
		t.Fatalf("failed share %v, want 0.6", got)
	}
	if len(tl.lat) != 2 || tl.lat[0] != 2 || tl.lat[1] != 4 {
		t.Fatalf("latency sample %v, want only the correct operations [2 4]", tl.lat)
	}
	if statusErr(201, nil) != nil || statusErr(404, nil) == nil {
		t.Fatal("statusErr must pass 2xx and reject the rest")
	}
	if (&tally{}).failedShare() != 0 {
		t.Fatal("failed share with nothing attempted must be 0")
	}
}

func TestOpsConcurrentRecord(t *testing.T) {
	o := newOps()
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				o.record("detect", time.Millisecond, nil)
			}
		}()
	}
	wg.Wait()
	if got := o.get("detect"); got.attempted != 400 || len(got.lat) != 400 {
		t.Fatalf("recorded %d attempts and %d samples, want 400", got.attempted, len(got.lat))
	}
}

package prof_test

// Real profile sets through both decoders: the committed cg fixtures and
// zeusmp sets profiled here. The sets and the detect reports built from
// them must be identical, and the single-pass decoder must stay well
// under the reflection oracle's allocation count and bytes.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"scalana/internal/detect"
	"scalana/internal/ppg"
	"scalana/internal/prof"
	"scalana/internal/psg"

	scalana "scalana"
)

type decodeFunc func([]byte, *psg.Graph) (*prof.ProfileSet, error)

var decoders = []struct {
	name   string
	decode decodeFunc
}{
	{"single-pass", prof.DecodeProfileSet},
	{"reflect", prof.DecodeProfileSetReflect},
}

// profiledSets returns zeusmp profile sets, profiled at 1000 Hz, keyed by
// np, and the graph they were profiled against.
var profiledSets = sync.OnceValues(func() (map[int][]byte, error) {
	app := scalana.GetApp("zeusmp")
	pcfg := prof.DefaultConfig()
	pcfg.SampleHz = 1000
	sets := map[int][]byte{}
	for _, np := range []int{64, 256} {
		out, err := scalana.NewEngine().Run(scalana.RunConfig{App: app, NP: np, ToolName: "scalana", Prof: pcfg})
		if err != nil {
			return nil, err
		}
		ps := &prof.ProfileSet{App: app.Name, NP: np, Elapsed: out.Result.Elapsed, Profiles: out.Measurement.Profiles()}
		if sets[np], err = prof.EncodeProfileSet(ps); err != nil {
			return nil, err
		}
	}
	return sets, nil
})

func zeusmpSets(tb testing.TB) (map[int][]byte, *psg.Graph) {
	tb.Helper()
	sets, err := profiledSets()
	if err != nil {
		tb.Fatal(err)
	}
	_, graph, err := scalana.Compile(scalana.GetApp("zeusmp"))
	if err != nil {
		tb.Fatal(err)
	}
	return sets, graph
}

// reportBytes decodes one set per scale, builds the PPGs and returns the
// encoded detect report.
func reportBytes(t *testing.T, decode decodeFunc, graph *psg.Graph, sets map[int][]byte, nps []int) []byte {
	t.Helper()
	var runs []detect.ScaleRun
	for _, np := range nps {
		ps, err := decode(sets[np], graph)
		if err != nil {
			t.Fatalf("decode np=%d: %v", np, err)
		}
		pg, err := ppg.Build(graph, ps.Profiles)
		if err != nil {
			t.Fatalf("build PPG np=%d: %v", np, err)
		}
		runs = append(runs, detect.ScaleRun{NP: np, PPG: pg})
	}
	rep, err := scalana.DetectScalingLoss(runs, detect.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	data, err := rep.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestDecodersAgreeOnProfiledSets(t *testing.T) {
	zeusmp, zgraph := zeusmpSets(t)
	_, cgraph, err := scalana.Compile(scalana.GetApp("cg"))
	if err != nil {
		t.Fatal(err)
	}
	cg := map[int][]byte{}
	for _, np := range []int{4, 8} {
		if cg[np], err = os.ReadFile(filepath.Join("..", "..", "testdata", fmt.Sprintf("cg.%d.json", np))); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		app   string
		graph *psg.Graph
		sets  map[int][]byte
		nps   []int
	}{
		{"cg", cgraph, cg, []int{4, 8}},
		{"zeusmp", zgraph, zeusmp, []int{64, 256}},
	} {
		for _, np := range c.nps {
			want, err := prof.DecodeProfileSetReflect(c.sets[np], c.graph)
			if err != nil {
				t.Fatalf("%s np=%d: oracle: %v", c.app, np, err)
			}
			got, err := prof.DecodeProfileSet(c.sets[np], c.graph)
			if err != nil {
				t.Fatalf("%s np=%d: %v", c.app, np, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s np=%d: decoded sets differ", c.app, np)
			}
		}
		want := reportBytes(t, prof.DecodeProfileSetReflect, c.graph, c.sets, c.nps)
		if got := reportBytes(t, prof.DecodeProfileSet, c.graph, c.sets, c.nps); !bytes.Equal(got, want) {
			t.Errorf("%s: detect reports differ:\n%s\nvs oracle\n%s", c.app, got, want)
		}
	}
}

// decodeCost returns the allocations and bytes allocated per decode.
func decodeCost(t *testing.T, decode decodeFunc, data []byte, graph *psg.Graph) (allocs, bytes float64) {
	t.Helper()
	const runs = 20
	run := func() {
		if _, err := decode(data, graph); err != nil {
			t.Fatal(err)
		}
	}
	allocs = testing.AllocsPerRun(runs, run)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	return allocs, float64(after.TotalAlloc-before.TotalAlloc) / runs
}

// TestDecodeAllocGate compares both decoders on the same set in the same
// run: the single-pass decoder must allocate at most half as many
// objects as the oracle, and no more bytes. The bytes bound matters as
// much as the count: buffering records before resolving them would cut
// allocations while raising the bytes, and with them peak memory.
func TestDecodeAllocGate(t *testing.T) {
	sets, graph := zeusmpSets(t)
	data := sets[256]
	gotAllocs, gotBytes := decodeCost(t, prof.DecodeProfileSet, data, graph)
	wantAllocs, wantBytes := decodeCost(t, prof.DecodeProfileSetReflect, data, graph)
	t.Logf("np=256 (%d bytes): single-pass %.0f allocs %.0f B; reflect %.0f allocs %.0f B", len(data), gotAllocs, gotBytes, wantAllocs, wantBytes)
	if gotAllocs > wantAllocs/2 {
		t.Errorf("single-pass decode allocates %.0f objects, want at most half of the oracle's %.0f", gotAllocs, wantAllocs)
	}
	if gotBytes > wantBytes {
		t.Errorf("single-pass decode allocates %.0f bytes, want no more than the oracle's %.0f", gotBytes, wantBytes)
	}
}

// BenchmarkDecodeProfileSet decodes one zeusmp np=256 set with each
// decoder.
func BenchmarkDecodeProfileSet(b *testing.B) {
	sets, graph := zeusmpSets(b)
	data := sets[256]
	for _, d := range decoders {
		b.Run(d.name, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := d.decode(data, graph); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

package prof

// Differential tests for the single-pass decoder: on every input it must
// agree with the reflection oracle (oracle_test.go) — both fail, or both
// succeed with deep-equal profile sets. DecodeEnvelope is held to
// json.Unmarshal into an app/np struct the same way.

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"scalana/internal/psg"
)

// decodeCorners are inputs for each encoding/json behaviour the decoder
// reproduces. ok is the outcome both decoders must reach, so every case
// is known to exercise the path it names.
var decodeCorners = []struct {
	name string
	in   string
	ok   bool
}{
	// Key matching: exact, then bytes.EqualFold on the unescaped key.
	{"fold ascii", `{"APP":"a","Np":1,"PROFILES":[{"RANK":0,"NP":1,"Vertex":{"main:3":{"samples":1,"time":2,"pmu":[3]}}}]}`, true},
	{"fold long s", `{"profiles":[{"vertex":{"main:3":{"ſamples":7}}}]}`, true},
	{"fold kelvin", `{"profiles":[{"ranK":1,"comm":[{"VertexKey":"main:24","Op":"mpi_send"}]}]}`, true},
	{"fold kelvin escaped", `{"profiles":[{"ran\u212a":1,"comm":[{"Vertex\u212aey":"main:24"}]}]}`, true},
	{"fold no match", `{"profiles":[{"rank ":5,"ra":6}]}`, true},
	// Duplicate keys.
	{"dup scalar", `{"app":"a","app":"b","np":1,"np":2,"elapsed":1,"elapsed":2}`, true},
	{"dup vertex merges", `{"profiles":[{"vertex":{"main:3":{"Samples":1}},"vertex":{"main:7":{"Samples":2}}}]}`, true},
	{"dup vertex key last wins", `{"profiles":[{"vertex":{"main:3":{"Samples":1,"Time":3},"main:3":{"Samples":2}}}]}`, true},
	{"dup comm merges elements", `{"profiles":[{"comm":[{"VertexKey":"main:24","Op":"a","Tag":4},{"VertexKey":"main:24","Op":"b"}],"comm":[{"Op":"c"}]}]}`, true},
	{"dup comm reuses truncated", `{"profiles":[{"comm":[{"VertexKey":"main:24","Op":"a"},{"VertexKey":"main:24","Op":"b","Tag":9}],"comm":[{"Op":"c"}],"comm":[{},{"Count":3}]}]}`, true},
	{"dup comm empty drops", `{"profiles":[{"comm":[{"VertexKey":"main:24"},{"VertexKey":"main:24","Tag":9}],"comm":[],"comm":[{"VertexKey":"main:24"},{"Count":3}]}]}`, false},
	{"dup profiles merge", `{"profiles":[{"rank":1,"vertex":{"main:3":{"Samples":1}}},{"rank":2}],"profiles":[{"np":4}]}`, true},
	{"dup profiles reuse truncated", `{"profiles":[{"rank":1},{"rank":2,"np":7}],"profiles":[{}],"profiles":[{},{"rank":3}]}`, true},
	{"dup indirect", `{"profiles":[{"indirect":[{"InstancePath":"main","Site":1,"Target":"f","Count":1},{"InstancePath":"main","Site":1,"Target":"f","Count":2}],"indirect":[{"Count":5}]}]}`, true},
	// null.
	{"null top level", `null`, true},
	{"null scalars keep", `{"app":"a","app":null,"np":3,"np":null,"profiles":[{"rank":1,"rank":null}]}`, true},
	{"null vertex resets", `{"profiles":[{"vertex":{"main:3":{"Samples":1}},"vertex":null}]}`, true},
	{"null vertex drops unknown", `{"profiles":[{"vertex":{"bogus":{}},"vertex":null}]}`, true},
	{"null vertex record", `{"profiles":[{"vertex":{"main:7":{},"main:3":null}}]}`, false},
	{"null vertex record replaced", `{"profiles":[{"vertex":{"main:3":null,"main:3":{"Samples":1}}}]}`, true},
	{"null record sorts before unknown", `{"profiles":[{"vertex":{"zzz":{},"main:3":null}}]}`, false},
	{"unknown sorts before null record", `{"profiles":[{"vertex":{"main:3":null,"a":{}}}]}`, false},
	{"null comm record", `{"profiles":[{"comm":[null]}]}`, false},
	{"null comm list resets", `{"profiles":[{"comm":[null],"comm":null}]}`, true},
	{"null indirect record", `{"profiles":[{"indirect":[null]}]}`, false},
	{"null profile", `{"profiles":[null]}`, false},
	{"null profile replaced", `{"profiles":[null],"profiles":[{}]}`, true},
	{"null profiles resets", `{"profiles":[null],"profiles":null}`, true},
	{"null pmu keeps", `{"profiles":[{"vertex":{"main:3":{"PMU":[1,2,3,4,5],"PMU":null}}}]}`, true},
	{"null pmu element keeps", `{"profiles":[{"vertex":{"main:3":{"PMU":[1,2,3,4,5],"PMU":[null,null,7]}}}]}`, true},
	{"null comm fields keep", `{"profiles":[{"comm":[{"VertexKey":"main:24","VertexKey":null,"Collective":true,"Collective":null,"DepVertex":"main:3","DepVertex":null}]}]}`, true},
	// PMU lengths.
	{"pmu short", `{"profiles":[{"vertex":{"main:3":{"PMU":[1,2]}}}]}`, true},
	{"pmu short zeroes tail", `{"profiles":[{"vertex":{"main:3":{"PMU":[1,2,3,4,5],"PMU":[9]}}}]}`, true},
	{"pmu long", `{"profiles":[{"vertex":{"main:3":{"PMU":[1,2,3,4,5,6,"x",{"y":[null]},true]}}}]}`, true},
	{"pmu empty", `{"profiles":[{"vertex":{"main:3":{"PMU":[1],"PMU":[]}}}]}`, true},
	{"pmu bad element", `{"profiles":[{"vertex":{"main:3":{"PMU":["1"]}}}]}`, false},
	{"pmu object", `{"profiles":[{"vertex":{"main:3":{"PMU":{}}}}]}`, false},
	// Escapes and UTF-8.
	{"escaped vertex key", `{"profiles":[{"vertex":{"main\u003a3":{"Samples":1},"main:3":{"Time":2}}}]}`, true},
	{"escaped vertex key upper hex", `{"profiles":[{"vertex":{"main\u003A3":{"Samples":1}}}]}`, true},
	{"escaped comm keys", `{"profiles":[{"comm":[{"VertexKey":"main\u003a24","Op":"mpi\u005fsend","DepVertex":"\u006dain:3"}]}]}`, true},
	{"escaped field name", `{"\u0061pp":"x","profiles":[{"vertex":{"main:3":{"\u0053amples":4}}}]}`, true},
	{"escapes in strings", `{"app":"a\"b\\c\/d\be\ff\ng\rh\ti\u00e9\ud83d\ude00"}`, true},
	{"unpaired surrogates", `{"app":"\ud800x\udc00\ud800\u0041\ud83d"}`, true},
	{"invalid utf8 string", "{\"app\":\"a\xffb\xc3\"}", true},
	{"invalid utf8 vertex key", "{\"profiles\":[{\"vertex\":{\"main:3\xff\":{}}}]}", false},
	{"raw utf8 string", `{"app":"zeusmp-é"}`, true},
	{"bad escape", `{"app":"\x"}`, false},
	{"single quote escape", `{"app":"\'"}`, false},
	{"short unicode escape", `{"app":"\u12"}`, false},
	{"control character", "{\"app\":\"a\tb\"}", false},
	// Numbers.
	{"int fraction", `{"np":1.5}`, false},
	{"int exponent", `{"np":1e2}`, false},
	{"int zero fraction", `{"np":1.0}`, false},
	{"int negative zero", `{"np":-0,"profiles":[{"rank":-0}]}`, true},
	{"int64 max", `{"profiles":[{"vertex":{"main:3":{"Samples":9223372036854775807}}}]}`, true},
	{"int64 min", `{"profiles":[{"vertex":{"main:3":{"Samples":-9223372036854775808}}}]}`, true},
	{"int64 overflow", `{"profiles":[{"vertex":{"main:3":{"Samples":9223372036854775808}}}]}`, false},
	{"int long", `{"np":-100000000000000000}`, true},
	{"float overflow", `{"elapsed":1e400}`, false},
	{"float underflow", `{"elapsed":1e-400}`, true},
	{"float negative zero", `{"elapsed":-0,"profiles":[{"vertex":{"main:3":{"Time":-0.0,"PMU":[-0]}}}]}`, true},
	{"float forms", `{"elapsed":1E+2,"profiles":[{"comm":[{"VertexKey":"main:24","Bytes":12.5e-1,"TotalWait":0.1}]}]}`, true},
	{"leading zero", `{"np":01}`, false},
	{"bare minus", `{"np":-}`, false},
	{"dangling point", `{"elapsed":1.}`, false},
	{"dangling exponent", `{"elapsed":1e}`, false},
	{"plus sign", `{"np":+1}`, false},
	// Framing.
	{"trailing data", `{} x`, false},
	{"trailing object", `{}{}`, false},
	{"trailing whitespace", " \t\r\n{} \n", true},
	{"leading bom", "\xef\xbb\xbf{}", false},
	{"empty", ``, false},
	{"whitespace only", `  `, false},
	{"truncated", `{"app":"a"`, false},
	{"trailing comma", `{"app":"a",}`, false},
	{"array trailing comma", `{"profiles":[{},]}`, false},
	{"missing colon", `{"app" "a"}`, false},
	{"bad literal", `{"app":nul}`, false},
	{"literal suffix", `{"app":nullx}`, false},
	// Types.
	{"top level array", `[]`, false},
	{"top level string", `"x"`, false},
	{"string into int", `{"np":"1"}`, false},
	{"number into string", `{"app":1}`, false},
	{"number into bool", `{"profiles":[{"comm":[{"Collective":1}]}]}`, false},
	{"object into list", `{"profiles":[{"comm":{}}]}`, false},
	{"array into map", `{"profiles":[{"vertex":[]}]}`, false},
	{"number into profile", `{"profiles":[1]}`, false},
	{"string into profiles", `{"profiles":"x"}`, false},
	{"array into record", `{"profiles":[{"vertex":{"main:3":[]}}]}`, false},
	{"unknown fields skipped", `{"extra":[1,{"a":null,"b":[true,false,"s\u0041"]}],"profiles":[{"x":{},"comm":[{"VertexKey":"main:24","y":[]}],"vertex":{"main:3":{"z":1}}}]}`, true},
	{"unknown field invalid", `{"extra":[01]}`, false},
	// Vertex resolution.
	{"unknown comm vertex", `{"profiles":[{"comm":[{"VertexKey":"nope"}]}]}`, false},
	{"unknown dep vertex", `{"profiles":[{"comm":[{"VertexKey":"main:24","DepVertex":"nope"}]}]}`, false},
	{"empty comm vertex", `{"profiles":[{"comm":[{}]}]}`, false},
	{"unknown vertex replaced", `{"profiles":[{"comm":[{"VertexKey":"nope","VertexKey":"main:24"}]}]}`, true},
	// Nesting depth.
	{"depth limit", `{"x":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `}`, true},
	{"depth exceeded", `{"x":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`, false},
	{"depth exceeded in objects", `{"x":` + strings.Repeat(`{"a":`, 10000) + `1` + strings.Repeat("}", 10000) + `}`, false},
}

// checkDecodersAgree fails t unless both decoders fail on data or both
// succeed with deep-equal sets that encode to the same bytes. When the
// oracle parses data but rejects its contents, the messages must match.
func checkDecodersAgree(t *testing.T, g *psg.Graph, data []byte) (ok bool) {
	t.Helper()
	want, wantErr := decodeProfileSetReflect(data, g)
	got, gotErr := DecodeProfileSet(data, g)
	switch {
	case (wantErr == nil) != (gotErr == nil):
		t.Fatalf("decoders disagree on %q:\noracle: %v\nsingle-pass: %v", data, wantErr, gotErr)
	case wantErr != nil:
		if !strings.HasPrefix(wantErr.Error(), "parse profile set:") && gotErr.Error() != wantErr.Error() {
			t.Fatalf("error for %q differs:\noracle: %v\nsingle-pass: %v", data, wantErr, gotErr)
		}
	case !reflect.DeepEqual(got, want):
		t.Fatalf("decoded sets differ for %q:\noracle: %+v\nsingle-pass: %+v", data, want, got)
	default:
		wantEnc, err1 := want.Encode()
		gotEnc, err2 := got.Encode()
		if err1 != nil || err2 != nil || !bytes.Equal(wantEnc, gotEnc) {
			t.Fatalf("decoded sets encode differently for %q (%v, %v):\n%s\nvs\n%s", data, err1, err2, wantEnc, gotEnc)
		}
	}
	var head struct {
		App string `json:"app"`
		NP  int    `json:"np"`
	}
	headErr := json.Unmarshal(data, &head)
	app, np, err := DecodeEnvelope(data)
	if (headErr == nil) != (err == nil) || headErr == nil && (app != head.App || np != head.NP) {
		t.Fatalf("DecodeEnvelope(%q) = %q, %d, %v; json.Unmarshal gives %q, %d, %v", data, app, np, err, head.App, head.NP, headErr)
	}
	return wantErr == nil
}

func TestDecodeCornerCases(t *testing.T) {
	g := fuzzGraph(t)
	for _, c := range decodeCorners {
		t.Run(c.name, func(t *testing.T) {
			if ok := checkDecodersAgree(t, g, []byte(c.in)); ok != c.ok {
				t.Errorf("decoded ok=%v, want %v", ok, c.ok)
			}
		})
	}
}

// TestDecodeKeepsRecordErrors pins the messages callers see for inputs
// that parse but do not fit the graph.
func TestDecodeKeepsRecordErrors(t *testing.T) {
	g := fuzzGraph(t)
	for in, want := range map[string]string{
		`{"profiles":[{"rank":3,"vertex":{"nope":{}}}]}`:                    `rank 3 profile names vertex "nope", which the compiled graph does not contain (profile/app mismatch?)`,
		`{"profiles":[{"rank":3,"vertex":{"main:3":null}}]}`:                `rank 3 profile has a null record for vertex "main:3"`,
		`{"profiles":[{"rank":3,"comm":[null]}]}`:                           `rank 3 profile has a null communication record`,
		`{"profiles":[{"rank":3,"indirect":[null]}]}`:                       `rank 3 profile has a null indirect-call record`,
		`{"profiles":[null]}`:                                               `profile set has a null rank profile`,
		`{"profiles":[{"comm":[{"VertexKey":"main:24","DepVertex":"x"}]}]}`: `rank 0 profile names vertex "x", which the compiled graph does not contain (profile/app mismatch?)`,
	} {
		if _, err := DecodeProfileSet([]byte(in), g); err == nil || err.Error() != want {
			t.Errorf("DecodeProfileSet(%s) error = %v, want %s", in, err, want)
		}
	}
}

// fuzzCorpus reads the committed seed corpus of a fuzz target.
func fuzzCorpus(tb testing.TB, target string) [][]byte {
	tb.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "fuzz", target, "*"))
	if err != nil {
		tb.Fatal(err)
	}
	var out [][]byte
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			tb.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		if len(lines) != 2 || lines[0] != "go test fuzz v1" {
			tb.Fatalf("%s: not a one-value fuzz corpus file", p)
		}
		arg := strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")")
		s, err := strconv.Unquote(arg)
		if err != nil {
			tb.Fatalf("%s: %v", p, err)
		}
		out = append(out, []byte(s))
	}
	if len(out) == 0 {
		tb.Fatalf("no corpus files for %s", target)
	}
	return out
}

func FuzzDecodeDifferential(f *testing.F) {
	for _, seed := range fuzzCorpus(f, "FuzzDecodeProfileSet") {
		f.Add(seed)
	}
	g := fuzzGraph(f)
	rich, err := fuzzSeedSet(f, g).Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(rich)
	f.Add([]byte("{}"))
	f.Add([]byte("null"))
	f.Add([]byte(`{"app":"x","np":-3,"profiles":[null]}`))
	f.Add([]byte(`{"profiles":[{"rank":-1,"vertex":{"root":null}}]}`))
	for _, c := range decodeCorners {
		// The 20 kB nesting-depth cases stay in TestDecodeCornerCases:
		// minimizing their mutants stalls a short fuzz run.
		if len(c.in) < 1<<10 {
			f.Add([]byte(c.in))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecodersAgree(t, g, data)
	})
}

// TestParseFloatMatchesStrconv holds the fast path to strconv.ParseFloat
// bit for bit, on edge cases and on the shortest forms of random floats.
func TestParseFloatMatchesStrconv(t *testing.T) {
	lits := []string{
		"0", "-0", "0.0", "-0.000", "1", "-1", "9007199254740992", "9007199254740993",
		"90071992547409921", "0.1", "0.3", "4.160000000000005", "5433761183.999999",
		"0.00017280000000319956", "1e22", "1e23", "1.5e-7", "1E400", "1e-400",
		"0.0000000000000000000001", "0.00000000000000000000001", "123456789012345678901234567890",
		"2.2250738585072014e-308", "1.7976931348623157e308",
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		f := math.Float64frombits(rng.Uint64())
		if math.IsNaN(f) || math.IsInf(f, 0) {
			continue
		}
		lits = append(lits, strconv.FormatFloat(f, 'f', -1, 64), strconv.FormatFloat(f, 'g', -1, 64))
		digits := strconv.FormatUint(rng.Uint64()>>uint(rng.Intn(64)), 10)
		point := rng.Intn(len(digits) + 1)
		lits = append(lits, digits[:point]+"."+digits[point:]+"1")
	}
	for _, lit := range lits {
		want, wantErr := strconv.ParseFloat(lit, 64)
		got, err := parseFloat([]byte(lit))
		if (err == nil) != (wantErr == nil) || math.Float64bits(got) != math.Float64bits(want) && wantErr == nil {
			t.Fatalf("parseFloat(%s) = %v, %v; strconv gives %v, %v", lit, got, err, want, wantErr)
		}
	}
}

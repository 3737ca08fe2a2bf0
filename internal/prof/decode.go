package prof

// Single-pass decoder for the profile-set wire format written by Encode.
//
// The decoder walks the bytes once, with no reflection and no
// intermediate string-keyed maps: each vertex record is parsed straight
// into its rank's dense RankProfile.Vertex slot, each distinct vertex key
// is resolved against the graph once per set (not once per rank) through
// a per-set table looked up from the input bytes, and Op strings are
// interned. Strings are unescaped only when they contain a backslash or a
// non-ASCII byte.
//
// Its contract is exact: it accepts precisely the inputs that
// encoding/json.Unmarshal into the wire DTOs (rankProfileDTO and friends)
// accepts, followed by the DTO-to-profile conversion, and builds an
// identical ProfileSet. That includes encoding/json's corner cases: keys
// match field names case-insensitively (bytes.EqualFold), the last
// duplicate key wins, a repeated "vertex" object merges into the earlier
// one, a repeated array decodes into the earlier array's elements, null
// resets a map or slice but leaves a scalar or PMU vector unchanged,
// invalid UTF-8 and unpaired surrogates become U+FFFD, and integer fields
// reject fractions and exponents. The reflection decoder survives as the
// test oracle that FuzzDecodeDifferential holds this one to.

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"scalana/internal/minilang"
	"scalana/internal/psg"
)

// maxDepth is encoding/json's nesting limit: a document nesting more
// containers than this is rejected.
const maxDepth = 10000

// Field names of the wire structs, in the order the decoder's switches
// number them.
var (
	setFields      = []string{"app", "np", "elapsed", "profiles"}
	rankFields     = []string{"rank", "np", "vertex", "comm", "indirect"}
	perfFields     = []string{"Samples", "Time", "PMU"}
	commFields     = []string{"VertexKey", "Op", "DepRank", "DepVertex", "Tag", "Bytes", "Collective", "Count", "TotalWait", "MaxWait"}
	indirectFields = []string{"InstancePath", "Site", "Target", "Count"}
)

// vertexKey is a wire vertex key resolved against the graph.
type vertexKey struct {
	key string
	vid psg.VID
	ok  bool // the graph's symbol table contains key
}

// rankWire is one element of the "profiles" array while the set is
// decoded. It holds what a rankProfileDTO would: Rank, NP and the vertex
// records go straight into the profile it becomes.
type rankWire struct {
	RankProfile
	nulls    map[psg.VID]struct{} // known vertex keys bound to null
	unknown  map[string]struct{}  // vertex keys the graph does not contain
	comm     []commWire
	indirect []*IndirectRecord
}

// commWire is one element of a "comm" array: the record it becomes, with
// its vertex keys as indexes into the decoder's key list until the set
// is converted. live is false for a null element, as a nil
// *commRecordDTO would be.
type commWire struct {
	CommRecord
	vertex, dep int32
	live        bool
}

type decoder struct {
	data    []byte
	pos     int
	g       *psg.Graph
	nv      int              // g.NumVIDs() when a rank's vertex slots are sized
	keys    map[string]int32 // index into keyList of each vertex key in this set
	keyList []vertexKey      // vertex keys of this set, each resolved once
	ops     map[string]string
	scratch []commWire // the comm array being decoded
	sink    PerfData   // decode target for records under unknown keys
}

// noKey is the keyList index of the empty key: a new comm record's
// VertexKey and DepVertex.
const noKey = 0

// DecodeProfileSet parses wire-format bytes written by Encode (by this
// build or a pre-VID one — the wire format is unchanged) and re-interns
// them against the compiled graph's symbol table.
func DecodeProfileSet(data []byte, g *psg.Graph) (*ProfileSet, error) {
	d := &decoder{data: data, g: g, nv: g.NumVIDs(), keys: map[string]int32{}, ops: map[string]string{}}
	d.resolve("") // noKey
	var (
		app      string
		np       int
		elapsed  float64
		profiles []*rankWire
	)
	err := d.document(func() error {
		return d.object(1, setFields, func(field int, _ []byte, _ bool) error {
			switch field {
			case 0:
				return d.str(&app, nil)
			case 1:
				return decodeInt(d, &np)
			case 2:
				return d.float(&elapsed)
			case 3:
				return d.profiles(&profiles)
			}
			return d.skip(2)
		})
	})
	if err != nil {
		return nil, err
	}
	ps := &ProfileSet{App: app, NP: np, Elapsed: elapsed}
	if len(profiles) > 0 {
		ps.Profiles = make([]*RankProfile, 0, len(profiles))
	}
	d.nv = g.NumVIDs() // profiles span the symbol table as it is now
	for _, rw := range profiles {
		if rw == nil {
			return nil, fmt.Errorf("profile set has a null rank profile")
		}
		rp, err := d.rankProfile(rw)
		if err != nil {
			return nil, err
		}
		ps.Profiles = append(ps.Profiles, rp)
	}
	return ps, nil
}

// DecodeEnvelope reads a profile set's app and np without building its
// profiles. It accepts and rejects exactly what json.Unmarshal into a
// struct holding only the "app" and "np" fields does: the whole input
// must be valid JSON, but "profiles" is only skipped.
func DecodeEnvelope(data []byte) (app string, np int, err error) {
	d := &decoder{data: data}
	err = d.document(func() error {
		return d.object(1, setFields[:2], func(field int, _ []byte, _ bool) error {
			switch field {
			case 0:
				return d.str(&app, nil)
			case 1:
				return decodeInt(d, &np)
			}
			return d.skip(2)
		})
	})
	if err != nil {
		return "", 0, err
	}
	return app, np, nil
}

// ---- conversion to RankProfile ----

// rankProfile checks one decoded rank against the graph and builds its
// profile. Errors come in the order the DTO conversion reported them:
// vertex keys in sorted order, then comm records, then indirect records.
func (d *decoder) rankProfile(rw *rankWire) (*RankProfile, error) {
	if err := rw.vertexErr(d.g); err != nil {
		return nil, err
	}
	rp := &rw.RankProfile
	rp.Vertex = growVertex(rp.Vertex, d.nv)
	rp.Graph = d.g
	rp.Comm = make(map[CommKey]*CommRecord, len(rw.comm))
	rp.Indirect = make(map[string]*IndirectRecord, len(rw.indirect))
	for i := range rw.comm {
		c := &rw.comm[i]
		if !c.live {
			return nil, fmt.Errorf("rank %d profile has a null communication record", rp.Rank)
		}
		vk := d.keyList[c.vertex]
		if !vk.ok {
			return nil, unknownVertex(rp.Rank, vk.key)
		}
		c.VID, c.DepVID = vk.vid, psg.VIDNone
		if dep := d.keyList[c.dep]; dep.key != "" {
			if !dep.ok {
				return nil, unknownVertex(rp.Rank, dep.key)
			}
			c.DepVID = dep.vid
		}
		rp.Comm[c.CommKey] = &c.CommRecord
	}
	for _, rec := range rw.indirect {
		if rec == nil {
			return nil, fmt.Errorf("rank %d profile has a null indirect-call record", rp.Rank)
		}
		rp.Indirect[rec.InstancePath+":"+strconv.Itoa(int(rec.Site))+"#"+rec.Target] = rec
	}
	return rp, nil
}

// growVertex extends dense vertex storage to n slots in one allocation.
func growVertex(v []PerfData, n int) []PerfData {
	if len(v) >= n {
		return v
	}
	grown := make([]PerfData, n)
	copy(grown, v)
	return grown
}

// vertexErr reports the first bad vertex key in sorted order, as the DTO
// conversion's sorted walk over the vertex map found it: a key the graph
// does not contain, or a known key bound to null.
func (rw *rankWire) vertexErr(g *psg.Graph) error {
	var first string
	found, null := false, false
	for key := range rw.unknown {
		if !found || key < first {
			first, found = key, true
		}
	}
	for vid := range rw.nulls {
		if key := g.KeyOf(vid); !found || key < first {
			first, found, null = key, true, true
		}
	}
	switch {
	case !found:
		return nil
	case null:
		return fmt.Errorf("rank %d profile has a null record for vertex %q", rw.Rank, first)
	}
	return unknownVertex(rw.Rank, first)
}

func unknownVertex(rank int, key string) error {
	return fmt.Errorf("rank %d profile names vertex %q, which the compiled graph does not contain (profile/app mismatch?)", rank, key)
}

// ---- schema ----

// profiles decodes the "profiles" array. Like encoding/json decoding into
// a slice of pointers, it decodes element i into the existing element i
// of an earlier "profiles" array, when there is one.
func (d *decoder) profiles(dst *[]*rankWire) error {
	switch d.data[d.pos] {
	case 'n':
		*dst = nil
		return d.null()
	case '[':
	default:
		return d.mismatch("profiles")
	}
	s := *dst
	n, err := d.array(2, func(i int) error {
		s = reuse(s, i)
		switch d.data[d.pos] {
		case 'n':
			s[i] = nil
			return d.null()
		case '{':
		default:
			return d.mismatch("rank profile")
		}
		if s[i] == nil {
			s[i] = &rankWire{}
		}
		return d.rank(s[i])
	})
	*dst = trim(s, n)
	return err
}

func (d *decoder) rank(rw *rankWire) error {
	return d.object(3, rankFields, func(field int, _ []byte, _ bool) error {
		switch field {
		case 0:
			return decodeInt(d, &rw.Rank)
		case 1:
			return decodeInt(d, &rw.NP)
		case 2:
			return d.vertexMap(rw)
		case 3:
			return d.commList(rw)
		case 4:
			return d.indirectList(rw)
		}
		return d.skip(4)
	})
}

// vertexMap decodes a "vertex" object into the rank's dense slots. A
// second "vertex" object adds to the first; null empties it.
func (d *decoder) vertexMap(rw *rankWire) error {
	switch d.data[d.pos] {
	case 'n':
		clear(rw.Vertex)
		rw.nulls, rw.unknown = nil, nil
		return d.null()
	case '{':
	default:
		return d.mismatch("vertex map")
	}
	return d.object(4, nil, func(_ int, name []byte, esc bool) error {
		vk := d.keyList[d.vertexKey(name, esc)]
		pd := &d.sink
		if vk.ok {
			rw.Vertex = growVertex(rw.Vertex, max(d.nv, int(vk.vid)+1))
			pd = &rw.Vertex[vk.vid]
		} else {
			if rw.unknown == nil {
				rw.unknown = map[string]struct{}{}
			}
			rw.unknown[vk.key] = struct{}{}
		}
		*pd = PerfData{}
		switch d.data[d.pos] {
		case 'n':
			if vk.ok {
				if rw.nulls == nil {
					rw.nulls = map[psg.VID]struct{}{}
				}
				rw.nulls[vk.vid] = struct{}{}
			}
			return d.null()
		case '{':
		default:
			return d.mismatch("vertex record")
		}
		if vk.ok {
			delete(rw.nulls, vk.vid)
		}
		return d.perf(pd)
	})
}

func (d *decoder) perf(pd *PerfData) error {
	return d.object(5, perfFields, func(field int, _ []byte, _ bool) error {
		switch field {
		case 0:
			return decodeInt(d, &pd.Samples)
		case 1:
			return d.float(&pd.Time)
		case 2:
			return d.pmu(pd)
		}
		return d.skip(6)
	})
}

// pmu decodes the fixed-length counter vector: extra elements are
// skipped, missing ones are zeroed, null elements keep their value.
func (d *decoder) pmu(pd *PerfData) error {
	switch d.data[d.pos] {
	case 'n':
		return d.null()
	case '[':
	default:
		return d.mismatch("PMU")
	}
	v := &pd.PMU
	n, err := d.array(6, func(i int) error {
		if i < len(v) {
			return d.float(&v[i])
		}
		return d.skip(7)
	})
	for i := n; i < len(v); i++ {
		v[i] = 0
	}
	return err
}

// commList decodes a "comm" array. It decodes into the decoder's scratch
// slice, primed with the rank's earlier elements up to their capacity so
// they are reused as encoding/json reuses them, and then stores exactly
// the decoded elements: one allocation per array, none for growth.
func (d *decoder) commList(rw *rankWire) error {
	switch d.data[d.pos] {
	case 'n':
		rw.comm = nil
		return d.null()
	case '[':
	default:
		return d.mismatch("comm list")
	}
	prev := rw.comm[:cap(rw.comm)]
	s := append(d.scratch[:0], prev...)
	n, err := d.array(4, func(i int) error {
		if i == len(s) {
			s = append(s, commWire{})
		}
		c := &s[i]
		switch d.data[d.pos] {
		case 'n':
			c.live = false
			return d.null()
		case '{':
		default:
			return d.mismatch("comm record")
		}
		if !c.live {
			*c = commWire{vertex: noKey, dep: noKey, live: true}
		}
		return d.comm(c)
	})
	d.scratch = s
	switch {
	case n == 0:
		rw.comm = nil
	case n <= len(prev):
		rw.comm = prev[:copy(prev, s[:n])]
	default:
		rw.comm = append([]commWire(nil), s[:n]...)
	}
	return err
}

func (d *decoder) comm(c *commWire) error {
	return d.object(5, commFields, func(field int, _ []byte, _ bool) error {
		switch field {
		case 0:
			return d.vertexRef(&c.vertex)
		case 1:
			return d.str(&c.Op, d.ops)
		case 2:
			return decodeInt(d, &c.DepRank)
		case 3:
			return d.vertexRef(&c.dep)
		case 4:
			return decodeInt(d, &c.Tag)
		case 5:
			return d.float(&c.Bytes)
		case 6:
			return d.bool(&c.Collective)
		case 7:
			return decodeInt(d, &c.Count)
		case 8:
			return d.float(&c.TotalWait)
		case 9:
			return d.float(&c.MaxWait)
		}
		return d.skip(6)
	})
}

func (d *decoder) indirectList(rw *rankWire) error {
	switch d.data[d.pos] {
	case 'n':
		rw.indirect = nil
		return d.null()
	case '[':
	default:
		return d.mismatch("indirect list")
	}
	s := rw.indirect
	n, err := d.array(4, func(i int) error {
		s = reuse(s, i)
		switch d.data[d.pos] {
		case 'n':
			s[i] = nil
			return d.null()
		case '{':
		default:
			return d.mismatch("indirect record")
		}
		if s[i] == nil {
			s[i] = &IndirectRecord{}
		}
		rec := s[i]
		return d.object(5, indirectFields, func(field int, _ []byte, _ bool) error {
			switch field {
			case 0:
				return d.str(&rec.InstancePath, nil)
			case 1:
				return decodeInt[minilang.NodeID](d, &rec.Site)
			case 2:
				return d.str(&rec.Target, nil)
			case 3:
				return decodeInt(d, &rec.Count)
			}
			return d.skip(6)
		})
	})
	rw.indirect = trim(s, n)
	return err
}

// reuse extends s to hold index i. Like encoding/json, an index inside
// the capacity keeps whatever element an earlier, longer array left there.
func reuse[T any](s []T, i int) []T {
	if i < cap(s) {
		return s[:i+1]
	}
	var zero T
	return append(s, zero)
}

// trim cuts s to the n elements an array decoded. An empty array drops
// the backing array, so no later array can reuse its elements.
func trim[T any](s []T, n int) []T {
	if n == 0 {
		return nil
	}
	return s[:n]
}

// vertexRef decodes a string naming a vertex (VertexKey, DepVertex).
func (d *decoder) vertexRef(dst *int32) error {
	switch d.data[d.pos] {
	case 'n':
		return d.null()
	case '"':
	default:
		return d.mismatch("vertex key")
	}
	raw, esc, err := d.string()
	if err != nil {
		return err
	}
	*dst = d.vertexKey(raw, esc)
	return nil
}

// vertexKey returns the keyList index of a raw (still quoted-form) key,
// so each distinct key costs one graph lookup per set.
func (d *decoder) vertexKey(raw []byte, esc bool) int32 {
	if !esc {
		if i, ok := d.keys[string(raw)]; ok {
			return i
		}
		return d.resolve(string(raw))
	}
	key := unquote(raw)
	if i, ok := d.keys[key]; ok {
		return i
	}
	return d.resolve(key)
}

func (d *decoder) resolve(key string) int32 {
	vid, ok := d.g.VIDOf(key)
	i := int32(len(d.keyList))
	d.keyList = append(d.keyList, vertexKey{key: key, vid: vid, ok: ok})
	d.keys[key] = i
	return i
}

// ---- typed values ----

// str decodes a string field; null leaves it unchanged. A non-nil intern
// table shares one copy of each distinct value.
func (d *decoder) str(dst *string, intern map[string]string) error {
	switch d.data[d.pos] {
	case 'n':
		return d.null()
	case '"':
	default:
		return d.mismatch("string")
	}
	raw, esc, err := d.string()
	if err != nil {
		return err
	}
	switch {
	case esc:
		*dst = unquote(raw)
	case intern == nil:
		*dst = string(raw)
	default:
		s, ok := intern[string(raw)]
		if !ok {
			s = string(raw)
			intern[s] = s
		}
		*dst = s
	}
	return nil
}

// decodeInt decodes an integer field as strconv.ParseInt does: no
// fraction, no exponent, in range for T; null leaves it unchanged.
func decodeInt[T ~int | ~int64](d *decoder, dst *T) error {
	switch c := d.data[d.pos]; {
	case c == 'n':
		return d.null()
	case c != '-' && (c < '0' || c > '9'):
		return d.mismatch("integer")
	}
	lit, integral, err := d.number()
	if err != nil {
		return err
	}
	if !integral {
		return d.errorf("number %s is not an integer", lit)
	}
	var n int64
	if digits := len(lit); digits <= 18 {
		neg := lit[0] == '-'
		if neg {
			lit = lit[1:]
		}
		for _, c := range lit {
			n = n*10 + int64(c-'0')
		}
		if neg {
			n = -n
		}
	} else if n, err = strconv.ParseInt(string(lit), 10, 64); err != nil {
		return d.errorf("number %s overflows an integer", lit)
	}
	if int64(T(n)) != n {
		return d.errorf("number %d overflows the field", n)
	}
	*dst = T(n)
	return nil
}

// float decodes a float64 field; null leaves it unchanged.
func (d *decoder) float(dst *float64) error {
	switch c := d.data[d.pos]; {
	case c == 'n':
		return d.null()
	case c != '-' && (c < '0' || c > '9'):
		return d.mismatch("number")
	}
	lit, _, err := d.number()
	if err != nil {
		return err
	}
	f, err := parseFloat(lit)
	if err != nil {
		return d.errorf("number %s is out of range", lit)
	}
	*dst = f
	return nil
}

// pow10 holds the powers of ten a float64 represents exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// parseFloat converts a validated JSON number exactly as
// strconv.ParseFloat does. A number without an exponent whose digits
// form an integer of at most 2^53, scaled by at most 10^22, takes
// Clinger's fast path: both operands are exact, so one correctly rounded
// division gives the correctly rounded result. Everything else goes to
// strconv.ParseFloat.
func parseFloat(lit []byte) (float64, error) {
	i := 0
	if lit[0] == '-' {
		i = 1
	}
	var mant uint64
	scale := 0
	for ; i < len(lit); i++ {
		c := lit[i]
		if c == '.' {
			scale = -1
			continue
		}
		if c < '0' || c > '9' || mant > 1<<53 {
			return strconv.ParseFloat(string(lit), 64)
		}
		mant = mant*10 + uint64(c-'0')
		if scale < 0 {
			scale--
		}
	}
	if scale < 0 {
		scale++ // the '.' itself
	}
	if mant > 1<<53 || -scale >= len(pow10) {
		return strconv.ParseFloat(string(lit), 64)
	}
	f := float64(mant) / pow10[-scale]
	if lit[0] == '-' {
		f = -f
	}
	return f, nil
}

// bool decodes a bool field; null leaves it unchanged.
func (d *decoder) bool(dst *bool) error {
	switch d.data[d.pos] {
	case 'n':
		return d.null()
	case 't':
		*dst = true
		return d.literal("true")
	case 'f':
		*dst = false
		return d.literal("false")
	}
	return d.mismatch("bool")
}

// ---- JSON syntax ----

// document decodes one top-level value surrounded by optional
// whitespace. A top-level null decodes to the zero set; anything other
// than an object or null is a type mismatch.
func (d *decoder) document(object func() error) error {
	if err := d.value(); err != nil {
		return err
	}
	var err error
	switch d.data[d.pos] {
	case 'n':
		err = d.null()
	case '{':
		err = object()
	default:
		err = d.mismatch("profile set")
	}
	if err != nil {
		return err
	}
	d.ws()
	if d.pos < len(d.data) {
		return d.errorf("invalid character %q after top-level value", d.data[d.pos])
	}
	return nil
}

// object decodes the object at d.pos, opened at nesting depth depth,
// calling member for each key with d.pos at the key's value; member must
// consume exactly that value. For a struct, names lists its fields and
// member gets the index of the field a key selects, or -1. Each key is
// first compared with the quoted name of the field after the last one
// seen, because Encode writes fields in order; that match is exact, so
// it selects what fieldIndex would. For a map, names is nil and member
// gets the raw key.
func (d *decoder) object(depth int, names []string, member func(field int, name []byte, esc bool) error) error {
	if depth > maxDepth {
		return d.errorf("exceeded max depth")
	}
	d.pos++ // '{'
	d.ws()
	if d.pos < len(d.data) && d.data[d.pos] == '}' {
		d.pos++
		return nil
	}
	for next := 0; ; {
		if d.pos >= len(d.data) {
			return d.errorf("unexpected end of JSON input")
		}
		if d.data[d.pos] != '"' {
			return d.errorf("invalid character %q looking for beginning of object key string", d.data[d.pos])
		}
		field := -1
		var name []byte
		var esc bool
		if next < len(names) && d.quoted(names[next]) {
			field = next
		} else {
			var err error
			if name, esc, err = d.string(); err != nil {
				return err
			}
			if names != nil {
				field = fieldIndex(name, esc, names)
			}
		}
		next = field + 1
		d.ws()
		if d.pos >= len(d.data) || d.data[d.pos] != ':' {
			return d.errorf("expected ':' after object key")
		}
		d.pos++
		if err := d.value(); err != nil {
			return err
		}
		if err := member(field, name, esc); err != nil {
			return err
		}
		d.ws()
		if d.pos >= len(d.data) {
			return d.errorf("unexpected end of JSON input")
		}
		switch d.data[d.pos] {
		case ',':
			d.pos++
			d.ws()
		case '}':
			d.pos++
			return nil
		default:
			return d.errorf("invalid character %q after object key:value pair", d.data[d.pos])
		}
	}
}

// quoted consumes the string literal at d.pos if it is exactly name,
// quoted.
func (d *decoder) quoted(name string) bool {
	end := d.pos + 1 + len(name)
	if end >= len(d.data) || d.data[end] != '"' || string(d.data[d.pos+1:end]) != name {
		return false
	}
	d.pos = end + 1
	return true
}

// array decodes the array at d.pos, opened at nesting depth depth,
// calling elem with each index and d.pos at the element. It returns the
// number of elements.
func (d *decoder) array(depth int, elem func(i int) error) (int, error) {
	if depth > maxDepth {
		return 0, d.errorf("exceeded max depth")
	}
	d.pos++ // '['
	d.ws()
	if d.pos < len(d.data) && d.data[d.pos] == ']' {
		d.pos++
		return 0, nil
	}
	for i := 0; ; i++ {
		if err := d.value(); err != nil {
			return i, err
		}
		if err := elem(i); err != nil {
			return i + 1, err
		}
		d.ws()
		if d.pos >= len(d.data) {
			return i + 1, d.errorf("unexpected end of JSON input")
		}
		switch d.data[d.pos] {
		case ',':
			d.pos++
		case ']':
			d.pos++
			return i + 1, nil
		default:
			return i + 1, d.errorf("invalid character %q after array element", d.data[d.pos])
		}
	}
}

// value skips whitespace to the start of a value. Each caller switches
// on the value's first byte, and mismatch rejects one that starts no
// JSON value.
func (d *decoder) value() error {
	d.ws()
	if d.pos >= len(d.data) {
		return d.errorf("unexpected end of JSON input")
	}
	return nil
}

// skip validates and consumes the value at d.pos, whose containers open
// at nesting depth depth.
func (d *decoder) skip(depth int) error {
	switch c := d.data[d.pos]; c {
	case '{':
		return d.object(depth, nil, func(int, []byte, bool) error { return d.skip(depth + 1) })
	case '[':
		_, err := d.array(depth, func(int) error { return d.skip(depth + 1) })
		return err
	case '"':
		_, _, err := d.string()
		return err
	case 't':
		return d.literal("true")
	case 'f':
		return d.literal("false")
	case 'n':
		return d.null()
	case '-', '0', '1', '2', '3', '4', '5', '6', '7', '8', '9':
		_, _, err := d.number()
		return err
	}
	return d.mismatch("value")
}

func (d *decoder) ws() {
	data, i := d.data, d.pos
	for i < len(data) && isSpace[data[i]] {
		i++
	}
	d.pos = i
}

// isSpace and isPlain classify bytes for the two hottest loops: JSON
// whitespace, and string bytes that end no string and need no unquote.
var isSpace, isPlain [256]bool

func init() {
	for _, c := range " \t\n\r" {
		isSpace[c] = true
	}
	for c := ' '; c < utf8.RuneSelf; c++ {
		isPlain[c] = c != '"' && c != '\\'
	}
}

func (d *decoder) null() error { return d.literal("null") }

func (d *decoder) literal(lit string) error {
	if end := d.pos + len(lit); end > len(d.data) || string(d.data[d.pos:end]) != lit {
		return d.errorf("invalid literal, want %s", lit)
	}
	d.pos += len(lit)
	return nil
}

// number consumes a JSON number and returns its text; integral reports
// that it has neither a fraction nor an exponent.
func (d *decoder) number() (lit []byte, integral bool, err error) {
	data, start := d.data, d.pos
	i := start
	if i < len(data) && data[i] == '-' {
		i++
	}
	switch {
	case i >= len(data):
		return nil, false, d.errorf("unexpected end of JSON input")
	case data[i] == '0':
		i++
	case '1' <= data[i] && data[i] <= '9':
		for i++; i < len(data) && isDigit(data[i]); i++ {
		}
	default:
		return nil, false, d.errorf("invalid character %q in numeric literal", data[i])
	}
	integral = true
	if i < len(data) && data[i] == '.' {
		integral = false
		if i++; i >= len(data) || !isDigit(data[i]) {
			return nil, false, d.errorf("missing digits after decimal point")
		}
		for i++; i < len(data) && isDigit(data[i]); i++ {
		}
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		integral = false
		if i++; i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		if i >= len(data) || !isDigit(data[i]) {
			return nil, false, d.errorf("missing digits in exponent")
		}
		for i++; i < len(data) && isDigit(data[i]); i++ {
		}
	}
	d.pos = i
	return data[start:i], integral, nil
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// string consumes a string literal and returns its raw contents; esc
// reports a backslash or non-ASCII byte, which need unquote. Escapes are
// validated here; control characters are rejected.
func (d *decoder) string() (raw []byte, esc bool, err error) {
	data := d.data
	start := d.pos + 1
	for i := start; i < len(data); {
		if isPlain[data[i]] {
			i++
			continue
		}
		switch c := data[i]; {
		case c == '"':
			d.pos = i + 1
			return data[start:i], esc, nil
		case c == '\\':
			esc = true
			if i+1 >= len(data) {
				return nil, false, d.errorf("unexpected end of JSON input")
			}
			switch data[i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i += 2
			case 'u':
				if hex4(data[i+2:]) < 0 {
					return nil, false, d.errorf("invalid \\u escape in string literal")
				}
				i += 6
			default:
				return nil, false, d.errorf("invalid escape %q in string literal", data[i+1])
			}
		case c < ' ':
			return nil, false, d.errorf("invalid control character %q in string literal", c)
		case c >= utf8.RuneSelf:
			esc = true
			i++
		default:
			i++
		}
	}
	return nil, false, d.errorf("unexpected end of JSON input")
}

// hex4 decodes the four hex digits at the start of s, or returns -1.
func hex4(s []byte) rune {
	if len(s) < 4 {
		return -1
	}
	var r rune
	for _, c := range s[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// unquote decodes validated string contents as encoding/json does:
// escapes are expanded, a valid surrogate pair becomes one rune, and an
// unpaired surrogate or invalid UTF-8 byte becomes U+FFFD.
func unquote(s []byte) string {
	b := make([]byte, 0, len(s))
	for r := 0; r < len(s); {
		c := s[r]
		switch {
		case c == '\\':
			switch e := s[r+1]; e {
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				rr := hex4(s[r+2:])
				r += 6
				if utf16.IsSurrogate(rr) {
					var rr1 rune = -1
					if r+1 < len(s) && s[r] == '\\' && s[r+1] == 'u' {
						rr1 = hex4(s[r+2:])
					}
					if dec := utf16.DecodeRune(rr, rr1); dec != unicode.ReplacementChar {
						r += 6
						b = utf8.AppendRune(b, dec)
						continue
					}
					rr = unicode.ReplacementChar
				}
				b = utf8.AppendRune(b, rr)
				continue
			default: // '"', '\\', '/'
				b = append(b, e)
			}
			r += 2
		case c < utf8.RuneSelf:
			b = append(b, c)
			r++
		default:
			rr, size := utf8.DecodeRune(s[r:])
			r += size
			b = utf8.AppendRune(b, rr)
		}
	}
	return string(b)
}

// fieldIndex returns the index of the struct field a key selects, or -1:
// an exact match, else a case-insensitive one under bytes.EqualFold (so
// "ſamples" selects Samples), on the unescaped key.
func fieldIndex(name []byte, esc bool, fields []string) int {
	if !esc && len(name) > 0 {
		for i, f := range fields {
			// Within one struct, length and first byte single out a name.
			if len(f) == len(name) && f[0] == name[0] && string(name) == f {
				return i
			}
		}
	}
	key := string(name)
	if esc {
		key = unquote(name)
	}
	for i, f := range fields {
		if strings.EqualFold(key, f) {
			return i
		}
	}
	return -1
}

// mismatch reports a value of the wrong JSON type for what the schema
// expects at d.pos.
func (d *decoder) mismatch(want string) error {
	switch c := d.data[d.pos]; {
	case c == '{', c == '[', c == '"', c == 't', c == 'f', c == 'n', c == '-', '0' <= c && c <= '9':
		return d.errorf("cannot decode %q into %s", c, want)
	default:
		return d.errorf("invalid character %q looking for beginning of value", c)
	}
}

func (d *decoder) errorf(format string, args ...any) error {
	return fmt.Errorf("parse profile set: offset %d: %s", d.pos, fmt.Sprintf(format, args...))
}

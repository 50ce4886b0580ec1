package taskgraph

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"unicode/utf8"
)

// The JSON form of a graph is one object with four keys, as
// encoding/json writes jsonGraph: the name, the vertex weights, every
// edge once as [a,b] with a < b, and the edge weights parallel to the
// edges, followed by a newline. A graph without edges lists both edge
// keys as null.
//
// Both directions are hand-written: topomapd reads an inline graph and
// writes it back as its content key on every request, cache hit or not.
// The writer appends the bytes json.Encoder wrote, byte for byte. The
// reader parses the spelling the writer writes in one pass, with the
// four keys in any order and any whitespace; every other spelling (an
// escaped or non-ASCII name, unknown or case-folded keys, null, a
// repeated key) goes to encoding/json, and both end in the same checks.

// jsonGraph is the serialized form of a Graph as encoding/json reads it.
// An edge is a slice, not a [2]int32, so that an entry without exactly
// two endpoints is refused instead of truncated or zero-filled.
type jsonGraph struct {
	Name          string    `json:"name"`
	VertexWeights []float64 `json:"vertexWeights"`
	Edges         [][]int32 `json:"edges"`
	EdgeWeights   []float64 `json:"edgeWeights"`
}

// EdgeArityError reports an entry of the edges list that does not list
// exactly two endpoints.
type EdgeArityError struct {
	Edge      int // its index in the list
	Endpoints int // how many endpoints it lists
}

func (e *EdgeArityError) Error() string {
	return fmt.Sprintf("taskgraph: edge %d lists %d endpoints, want 2", e.Edge, e.Endpoints)
}

// WriteJSON serializes g.
func (g *Graph) WriteJSON(w io.Writer) error {
	data, err := g.AppendJSON(nil)
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// AppendJSON appends the bytes WriteJSON writes to dst. A weight that is
// NaN or infinite has no JSON spelling; then dst comes back unchanged
// with an error.
func (g *Graph) AppendJSON(dst []byte) ([]byte, error) {
	start := len(dst)
	dst = append(dst, `{"name":`...)
	dst = appendJSONString(dst, g.name)
	dst = append(dst, `,"vertexWeights":`...)
	if g.vwgt == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, w := range g.vwgt {
			if i > 0 {
				dst = append(dst, ',')
			}
			if !finite(w) {
				return dst[:start], fmt.Errorf("taskgraph: vertex %d weight %v has no JSON spelling", i, w)
			}
			dst = appendJSONFloat(dst, w)
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"edges":[`...)
	open := len(dst)
	for v := 0; v < g.NumVertices(); v++ {
		adj, _ := g.Neighbors(v)
		for _, u := range adj {
			if int32(v) < u {
				dst = append(dst, '[')
				dst = strconv.AppendInt(dst, int64(v), 10)
				dst = append(dst, ',')
				dst = strconv.AppendInt(dst, int64(u), 10)
				dst = append(dst, "],"...)
			}
		}
	}
	if len(dst) == open {
		// No edge: json.Encoder writes the nil slices as null.
		return append(dst[:open-1], "null,\"edgeWeights\":null}\n"...), nil
	}
	dst[len(dst)-1] = ']'
	dst = append(dst, `,"edgeWeights":[`...)
	for v := 0; v < g.NumVertices(); v++ {
		adj, wts := g.Neighbors(v)
		for i, u := range adj {
			if int32(v) < u {
				if !finite(wts[i]) {
					return dst[:start], fmt.Errorf("taskgraph: edge (%d,%d) weight %v has no JSON spelling", v, u, wts[i])
				}
				dst = appendJSONFloat(dst, wts[i])
				dst = append(dst, ',')
			}
		}
	}
	dst[len(dst)-1] = ']'
	return append(dst, "}\n"...), nil
}

func finite(w float64) bool { return !math.IsInf(w, 0) && !math.IsNaN(w) }

// appendJSONFloat formats a finite f as encoding/json does: like %g, but
// with the exponent form only below 1e-6 and from 1e21 on, and without
// zero-padding the exponent.
func appendJSONFloat(dst []byte, f float64) []byte {
	format := byte('f')
	//lint:ignore floatcmp zero is formatted in plain notation, whatever its sign
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		// e-07 becomes e-7.
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

// appendJSONString quotes s as encoding/json does with HTML escaping on:
// <, > and & become \u003c, \u003e and \u0026, U+2028 and U+2029 are
// escaped, and each byte of invalid UTF-8 becomes \ufffd.
func appendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, `\b`...)
			case '\f':
				dst = append(dst, `\f`...)
			case '\n':
				dst = append(dst, `\n`...)
			case '\r':
				dst = append(dst, `\r`...)
			case '\t':
				dst = append(dst, `\t`...)
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// ReadJSON reads all of r and parses it with ParseJSON.
func ReadJSON(r io.Reader) (*Graph, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("taskgraph: read: %w", err)
	}
	return ParseJSON(data)
}

// ParseJSON parses one graph in the JSON form WriteJSON writes; only
// whitespace may follow it. The weights must not be negative, every edge
// must join two distinct vertices in range, and the two edge lists must
// be equally long. Zero-weight edges are dropped and repeated ones
// summed, as by a Builder; a sum past float64's range is refused, so
// every graph ParseJSON returns can be written back.
func ParseJSON(data []byte) (*Graph, error) {
	b, name, ok := scanJSON(data)
	if !ok {
		var err error
		if b, name, err = decodeJSON(data); err != nil {
			return nil, err
		}
	}
	return finishJSON(b, name)
}

// decodeJSON is ParseJSON's path for every spelling scanJSON declines.
func decodeJSON(data []byte) (*Builder, string, error) {
	var jg jsonGraph
	if err := json.Unmarshal(data, &jg); err != nil {
		return nil, "", fmt.Errorf("taskgraph: decode: %w", err)
	}
	b := &Builder{vwgt: jg.VertexWeights, w: jg.EdgeWeights,
		a: make([]int32, len(jg.Edges)), b: make([]int32, len(jg.Edges))}
	for i, e := range jg.Edges {
		if len(e) != 2 {
			return nil, "", &EdgeArityError{Edge: i, Endpoints: len(e)}
		}
		b.a[i], b.b[i] = e[0], e[1]
	}
	return b, jg.Name, nil
}

// finishJSON checks a decoded graph, drops its zero-weight edges and
// builds it. b holds the vertex weights and every listed edge, unchecked;
// each weight is finite, as both readers refuse a number out of range.
func finishJSON(b *Builder, name string) (*Graph, error) {
	n := len(b.vwgt)
	if n == 0 {
		return nil, fmt.Errorf("taskgraph: empty graph")
	}
	if len(b.a) != len(b.w) {
		return nil, fmt.Errorf("taskgraph: %d edges but %d edge weights", len(b.a), len(b.w))
	}
	for v, w := range b.vwgt {
		if w < 0 {
			return nil, fmt.Errorf("taskgraph: negative weight at vertex %d", v)
		}
	}
	kept := 0
	for i, w := range b.w {
		a, c := int(b.a[i]), int(b.b[i])
		if a < 0 || a >= n || c < 0 || c >= n || a == c {
			return nil, fmt.Errorf("taskgraph: bad edge (%d,%d)", a, c)
		}
		if w < 0 {
			return nil, fmt.Errorf("taskgraph: negative weight on edge (%d,%d)", a, c)
		}
		if keepEdge(a, c, w) {
			b.a[kept], b.b[kept], b.w[kept] = b.a[i], b.b[i], w
			kept++
		}
	}
	b.a, b.b, b.w = b.a[:kept], b.b[:kept], b.w[:kept]
	g := b.Build(name)
	for v := 0; v < n; v++ {
		adj, wts := g.Neighbors(v)
		for i, u := range adj {
			if math.IsInf(wts[i], 0) {
				return nil, fmt.Errorf("taskgraph: the weights of edge (%d,%d) sum past float64's range", v, u)
			}
		}
	}
	return g, nil
}

// scanJSON is ParseJSON's one pass: it fills a Builder straight from the
// bytes, or reports false for any spelling but the writer's (above), and
// for any defect, which encoding/json then names.
func scanJSON(data []byte) (b *Builder, name string, ok bool) {
	s := jsonScanner{data: data}
	b = new(Builder)
	if !s.next('{') {
		return nil, "", false
	}
	var seen uint8
	for {
		key, ok := s.str()
		if !ok || !s.next(':') {
			return nil, "", false
		}
		var bit uint8
		switch string(key) {
		case "name":
			bit = 1
			var v []byte
			if v, ok = s.str(); ok {
				name = string(v)
			}
		case "vertexWeights":
			bit = 2
			b.vwgt, ok = s.floats()
		case "edges":
			bit = 4
			ok = s.edges(b)
		case "edgeWeights":
			bit = 8
			b.w, ok = s.floats()
		default:
			return nil, "", false
		}
		if !ok || seen&bit != 0 {
			return nil, "", false
		}
		seen |= bit
		if !s.next(',') {
			break
		}
	}
	if !s.next('}') {
		return nil, "", false
	}
	s.skipSpace()
	return b, name, s.i == len(data)
}

// jsonScanner reads JSON tokens off data from i on.
type jsonScanner struct {
	data []byte
	i    int
}

func (s *jsonScanner) skipSpace() {
	for s.i < len(s.data) {
		switch s.data[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// next skips whitespace and consumes c if it comes next.
func (s *jsonScanner) next(c byte) bool {
	s.skipSpace()
	if s.i < len(s.data) && s.data[s.i] == c {
		s.i++
		return true
	}
	return false
}

// str consumes a string of printable ASCII without escapes and returns
// its contents.
func (s *jsonScanner) str() ([]byte, bool) {
	if !s.next('"') {
		return nil, false
	}
	for start := s.i; s.i < len(s.data); s.i++ {
		switch c := s.data[s.i]; {
		case c == '"':
			s.i++
			return s.data[start : s.i-1], true
		case c < 0x20 || c == '\\' || c >= utf8.RuneSelf:
			return nil, false
		}
	}
	return nil, false
}

// number consumes a number in JSON's grammar and returns its bytes.
func (s *jsonScanner) number() ([]byte, bool) {
	s.skipSpace()
	d, i := s.data, s.i
	if i < len(d) && d[i] == '-' {
		i++
	}
	if i < len(d) && d[i] == '0' {
		i++
	} else if i = digits(d, i); i < 0 {
		return nil, false
	}
	if i < len(d) && d[i] == '.' {
		if i = digits(d, i+1); i < 0 {
			return nil, false
		}
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		i++
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		if i = digits(d, i); i < 0 {
			return nil, false
		}
	}
	num := d[s.i:i]
	s.i = i
	return num, true
}

// digits returns the index after the run of digits at d[i:], or -1 if
// there is none.
func digits(d []byte, i int) int {
	j := i
	for j < len(d) && '0' <= d[j] && d[j] <= '9' {
		j++
	}
	if j == i {
		return -1
	}
	return j
}

// float consumes a number as encoding/json reads it into a float64:
// one out of float64's range is declined.
func (s *jsonScanner) float() (float64, bool) {
	num, ok := s.number()
	if !ok {
		return 0, false
	}
	f, err := strconv.ParseFloat(string(num), 64)
	return f, err == nil
}

// int32 consumes a number as encoding/json reads it into an int32: one
// with a fraction or an exponent, or out of range, is declined. It reads
// the digits itself: number and strconv.ParseInt per endpoint made
// naming the benchmark's inline graph about 15 % slower.
func (s *jsonScanner) int32() (int32, bool) {
	s.skipSpace()
	d, i := s.data, s.i
	neg := i < len(d) && d[i] == '-'
	if neg {
		i++
	}
	start := i
	var v int64
	for ; i < len(d) && '0' <= d[i] && d[i] <= '9' && i-start < 11; i++ {
		v = v*10 + int64(d[i]-'0')
	}
	if i == start || (d[start] == '0' && i-start > 1) || v > math.MaxInt32+1 {
		return 0, false
	}
	if i < len(d) && (d[i] == '.' || d[i] == 'e' || d[i] == 'E' || '0' <= d[i] && d[i] <= '9') {
		return 0, false
	}
	if neg {
		v = -v
	}
	if v > math.MaxInt32 {
		return 0, false
	}
	s.i = i
	return int32(v), true
}

// floats consumes an array of numbers.
func (s *jsonScanner) floats() ([]float64, bool) {
	if !s.next('[') {
		return nil, false
	}
	out := make([]float64, 0, s.count(',', "]")+1)
	if s.next(']') {
		return out, true
	}
	for {
		f, ok := s.float()
		if !ok {
			return nil, false
		}
		out = append(out, f)
		if !s.next(',') {
			return out, s.next(']')
		}
	}
}

// edges consumes an array of [a,b] pairs into b's endpoint lists.
func (s *jsonScanner) edges(b *Builder) bool {
	if !s.next('[') {
		return false
	}
	m := s.count('[', "]]")
	b.a, b.b = make([]int32, 0, m), make([]int32, 0, m)
	if s.next(']') {
		return true
	}
	for {
		if !s.next('[') {
			return false
		}
		a, ok := s.int32()
		if !ok || !s.next(',') {
			return false
		}
		c, ok := s.int32()
		if !ok || !s.next(']') {
			return false
		}
		b.a, b.b = append(b.a, a), append(b.b, c)
		if !s.next(',') {
			return s.next(']')
		}
	}
}

// count guesses how many elements the array whose '[' was just consumed
// holds, for its capacity alone: how often sep occurs before the first
// end, where the writer's spelling puts them (',' before "]" for numbers,
// one less than their count; '[' before "]]" for pairs), or 0 if end
// does not come. Without it, letting append grow the four slices, naming
// the benchmark's inline job took 55 allocations and 81 KB instead of 19
// and 62 KB, and svc-warm's alloc_kb_per_op rose from 35.6 to 38.6 (four
// alternated 6 s pairs on a 2-core Xeon); its time did not move beyond
// the noise.
func (s *jsonScanner) count(sep byte, end string) int {
	rest := s.data[s.i:]
	j := bytes.Index(rest, []byte(end))
	if j < 0 {
		return 0
	}
	return bytes.Count(rest[:j], []byte{sep})
}

// Exporters. All deterministic: series are emitted in sorted key order,
// points oldest first, numbers rendered by strconv — two identical runs (at
// any -parallel / -shards setting) produce byte-identical files. JSONL is
// hand-rolled append encoding like the audit plane's JSONLSink.
package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"strconv"
	"strings"

	"plexus/internal/sim"
)

// SortedSeries returns the engine's series ordered by key.
func (e *Engine) SortedSeries() []*Series {
	out := make([]*Series, len(e.series))
	copy(out, e.series)
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

// WriteJSONL dumps every retained point, one JSON object per line:
//
//	{"series":"tcp.cwnd","host":"a","labels":"conn=...","at":12000000,"v":2920}
func (e *Engine) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	var buf []byte
	var pts []Point
	for _, se := range e.SortedSeries() {
		pts = se.Points(pts[:0])
		for _, p := range pts {
			buf = buf[:0]
			buf = append(buf, `{"series":`...)
			buf = strconv.AppendQuote(buf, se.name)
			buf = append(buf, `,"host":`...)
			buf = strconv.AppendQuote(buf, se.host)
			if se.labels != "" {
				buf = append(buf, `,"labels":`...)
				buf = strconv.AppendQuote(buf, se.labels)
			}
			buf = append(buf, `,"at":`...)
			buf = strconv.AppendInt(buf, int64(p.At), 10)
			buf = append(buf, `,"v":`...)
			buf = strconv.AppendInt(buf, p.Val, 10)
			buf = append(buf, "}\n"...)
			if _, err := bw.Write(buf); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// Digest folds every series key and every retained point into one FNV-1a
// hash — a compact determinism witness for bench rows: byte-identical series
// content yields an identical digest at any -parallel or -shards setting.
func (e *Engine) Digest() uint64 {
	h := fnv.New64a()
	var num [8]byte
	put := func(v int64) {
		for i := 0; i < 8; i++ {
			num[i] = byte(v >> (8 * i))
		}
		h.Write(num[:])
	}
	var pts []Point
	for _, se := range e.SortedSeries() {
		io.WriteString(h, se.key)
		pts = se.Points(pts[:0])
		for _, p := range pts {
			put(int64(p.At))
			put(p.Val)
		}
	}
	return h.Sum64()
}

// JSONLPoint is the parsed form of one WriteJSONL line; plexus-top reads
// dumps back through it.
type JSONLPoint struct {
	Series string   `json:"series"`
	Host   string   `json:"host"`
	Labels string   `json:"labels"`
	At     sim.Time `json:"at"`
	V      int64    `json:"v"`
}

// ReadJSONL parses a WriteJSONL dump back into points, in file order.
func ReadJSONL(r io.Reader) ([]JSONLPoint, error) {
	var out []JSONLPoint
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var p JSONLPoint
		if err := json.Unmarshal([]byte(line), &p); err != nil {
			return nil, fmt.Errorf("telemetry: bad JSONL line %q: %w", line, err)
		}
		out = append(out, p)
	}
	return out, sc.Err()
}

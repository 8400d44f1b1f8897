package stf

// Task-flow import/export: a JSON form for persisting workloads and a
// Graphviz DOT form for visualizing the derived dependency DAG. Both are
// used by the cmd/rio-graph inspection tool.

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"unicode/utf8"
)

// WireGraph is the JSON wire form of a Graph: the document rio-graph -json
// writes, rio-vet reads and rio-serve accepts. Decoders target it directly
// (internal/server/ingest embeds it in the submission envelope, so a body
// is decoded once); Graph converts it into a validated Graph. The struct
// tags are the format's field names; WriteJSON writes the same document
// without going through these types.
type WireGraph struct {
	Name    string     `json:"name"`
	NumData int        `json:"num_data"`
	Tasks   []WireTask `json:"tasks"`
}

// WireTask is one task of a WireGraph.
type WireTask struct {
	Kernel   int          `json:"kernel"`
	I        int          `json:"i,omitempty"`
	J        int          `json:"j,omitempty"`
	K        int          `json:"k,omitempty"`
	Accesses []WireAccess `json:"accesses,omitempty"`
}

// WireAccess is one access of a WireTask; Mode is AccessMode.String's form.
type WireAccess struct {
	Data       DataID `json:"data"`
	Mode       string `json:"mode"`
	Idempotent bool   `json:"idempotent,omitempty"`
}

// Graph converts the wire form into a Graph and validates it. The access
// lists share one backing array.
func (wg *WireGraph) Graph() (*Graph, error) {
	n := 0
	for i := range wg.Tasks {
		n += len(wg.Tasks[i].Accesses)
	}
	arena := make([]Access, n)
	g := NewGraph(wg.Name, wg.NumData)
	if len(wg.Tasks) > 0 {
		g.Tasks = make([]Task, len(wg.Tasks))
	}
	for i := range wg.Tasks {
		wt := &wg.Tasks[i]
		// An empty access list stays nil: WriteJSON omits it, so a non-nil
		// empty slice here would make parse→serialize→parse not a fixed
		// point — a wire-protocol asymmetry the round-trip fuzz test pins
		// down.
		var accesses []Access
		if k := len(wt.Accesses); k > 0 {
			accesses, arena = arena[:k:k], arena[k:]
		}
		for j, wa := range wt.Accesses {
			mode, err := parseMode(wa.Mode)
			if err != nil {
				return nil, fmt.Errorf("stf: task %d: %w", i, err)
			}
			accesses[j] = Access{Data: wa.Data, Mode: mode, Idempotent: wa.Idempotent}
		}
		g.Tasks[i] = Task{ID: TaskID(i), Kernel: wt.Kernel, I: wt.I, J: wt.J, K: wt.K, Accesses: accesses}
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// jsonChunk is the buffered size at which WriteJSON flushes to its writer:
// serializing a graph of any size holds one chunk, not the document.
const jsonChunk = 16 << 10

// WriteJSON serializes g as the wire form's canonical document: fixed field
// order, two-space indentation and a trailing newline — byte for byte what
// encoding/json's Encoder with SetIndent("", "  ") writes for the WireGraph
// of g. Content hashes (ingest.Hash) are taken over these bytes, so every
// flow id depends on this layout. It appends directly, flushing in bounded
// chunks, without building the WireGraph.
func (g *Graph) WriteJSON(w io.Writer) error {
	b := make([]byte, 0, 2*jsonChunk)
	b = append(b, "{\n  \"name\": "...)
	b = appendJSONString(b, g.Name)
	b = append(b, ",\n  \"num_data\": "...)
	b = strconv.AppendInt(b, int64(g.NumData), 10)
	b = append(b, ",\n  \"tasks\": ["...)
	for i := range g.Tasks {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendWireTask(b, &g.Tasks[i])
		if len(b) >= jsonChunk {
			if _, err := w.Write(b); err != nil {
				return err
			}
			b = b[:0]
		}
	}
	if len(g.Tasks) > 0 {
		b = append(b, "\n  "...)
	}
	b = append(b, "]\n}\n"...)
	_, err := w.Write(b)
	return err
}

// appendWireTask appends t as one element of the "tasks" array, at the
// indentation WriteJSON's layout gives it. Zero coordinates and an empty
// access list are omitted, as the WireTask tags say.
func appendWireTask(b []byte, t *Task) []byte {
	b = append(b, "\n    {\n      \"kernel\": "...)
	b = strconv.AppendInt(b, int64(t.Kernel), 10)
	b = appendCoord(b, `"i": `, t.I)
	b = appendCoord(b, `"j": `, t.J)
	b = appendCoord(b, `"k": `, t.K)
	if len(t.Accesses) > 0 {
		b = append(b, ",\n      \"accesses\": ["...)
		for i, a := range t.Accesses {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, "\n        {\n          \"data\": "...)
			b = strconv.AppendInt(b, int64(a.Data), 10)
			b = append(b, ",\n          \"mode\": "...)
			b = appendJSONString(b, a.Mode.String())
			if a.Idempotent {
				b = append(b, ",\n          \"idempotent\": true"...)
			}
			b = append(b, "\n        }"...)
		}
		b = append(b, "\n      ]"...)
	}
	return append(b, "\n    }"...)
}

func appendCoord(b []byte, key string, v int) []byte {
	if v == 0 {
		return b
	}
	b = append(b, ",\n      "...)
	b = append(b, key...)
	return strconv.AppendInt(b, int64(v), 10)
}

// appendJSONString appends s as a JSON string escaped the way encoding/json
// escapes by default: quote and backslash by a backslash; \b, \f, \n, \r
// and \t by name; other control bytes and the HTML-sensitive <, > and & as
// \u00XX; invalid UTF-8 as \ufffd; U+2028 and U+2029 as \u2028 and \u2029.
func appendJSONString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// ReadJSON deserializes a graph written by WriteJSON and validates it.
func ReadJSON(r io.Reader) (*Graph, error) {
	var wg WireGraph
	if err := json.NewDecoder(r).Decode(&wg); err != nil {
		return nil, fmt.Errorf("stf: decoding graph: %w", err)
	}
	return wg.Graph()
}

func parseMode(s string) (AccessMode, error) {
	switch s {
	case "R":
		return ReadOnly, nil
	case "W":
		return WriteOnly, nil
	case "RW":
		return ReadWrite, nil
	case "Red":
		return Reduction, nil
	}
	return None, fmt.Errorf("unknown access mode %q", s)
}

// WriteDOT renders the derived dependency DAG in Graphviz format: one node
// per task (labelled with ID, kernel and tile coordinates), one edge per
// direct dependency.
func (g *Graph) WriteDOT(w io.Writer) error {
	deps := g.Dependencies()
	if _, err := fmt.Fprintf(w, "digraph %q {\n  rankdir=TB;\n  node [shape=box, fontsize=10];\n", g.Name); err != nil {
		return err
	}
	for i := range g.Tasks {
		t := &g.Tasks[i]
		if _, err := fmt.Fprintf(w, "  t%d [label=\"%d: k%d (%d,%d,%d)\"];\n",
			t.ID, t.ID, t.Kernel, t.I, t.J, t.K); err != nil {
			return err
		}
	}
	for id, ds := range deps {
		for _, d := range ds {
			if _, err := fmt.Fprintf(w, "  t%d -> t%d;\n", d, id); err != nil {
				return err
			}
		}
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}

// Summary describes a graph's structure for inspection tools.
type Summary struct {
	// Name and counts of the graph.
	Name    string
	Tasks   int
	NumData int
	// Edges is the number of direct dependencies, Depth the critical-path
	// length in tasks, MaxWidth the largest dependency level.
	Edges    int
	Depth    int
	MaxWidth int
	// AvgDeps is Edges / Tasks.
	AvgDeps float64
}

// Summarize computes structural statistics of g.
func (g *Graph) Summarize() Summary {
	deps := g.Dependencies()
	levels, depth := g.Levels()
	edges := 0
	for _, d := range deps {
		edges += len(d)
	}
	width := make(map[int]int)
	maxWidth := 0
	for _, l := range levels {
		width[l]++
		if width[l] > maxWidth {
			maxWidth = width[l]
		}
	}
	s := Summary{
		Name:     g.Name,
		Tasks:    len(g.Tasks),
		NumData:  g.NumData,
		Edges:    edges,
		Depth:    depth,
		MaxWidth: maxWidth,
	}
	if len(g.Tasks) > 0 {
		s.AvgDeps = float64(edges) / float64(len(g.Tasks))
	}
	return s
}

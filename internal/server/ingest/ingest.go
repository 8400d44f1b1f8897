// Package ingest is the single submission path shared by the rio-serve
// service and the CLI tools (rio-vet, rio-graph): it parses the JSON
// wire format — the graph form written by rio-graph and read by rio-vet,
// optionally wrapped in an envelope that adds a mapping — validates the
// (graph, workers, mapping) instance, preflights it through
// internal/analyze, and derives the content hash that gives a graph a
// stable identity across requests.
//
// The service and the tools parsing through one package is a protocol
// guarantee, not a convenience: a flow that rio-vet vets clean is
// accepted by the server byte-for-byte, and a flow the server rejects
// can be reproduced and diagnosed locally with the same tools.
package ingest

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"

	"rio/internal/analyze"
	"rio/internal/stf"
)

// MaxBodyBytes bounds a submission body. The server enforces it with
// http.MaxBytesReader; Parse enforces it again for non-HTTP callers.
const MaxBodyBytes = 32 << 20

// MappingSpec is the wire form of a static task→worker mapping. Exactly
// one of the fields may be set:
//
//   - Spec names a parametric mapping in the grammar the CLI tools use:
//     cyclic | block | blockcyclic:B | single:W | owner2d.
//   - Assign lists one worker per task (Assign[i] owns task i) — the
//     fully explicit form, e.g. the output of an automap run.
//
// A nil *MappingSpec (or a zero one) means the cyclic default.
//
// On the wire the mapping is either the spec string directly
// ("mapping": "blockcyclic:2") or the object form ({"spec": …} /
// {"assign": […]}); UnmarshalJSON accepts both.
type MappingSpec struct {
	Spec   string `json:"spec,omitempty"`
	Assign []int  `json:"assign,omitempty"`
}

// UnmarshalJSON accepts the shorthand string form alongside the object
// form, so envelopes can say "mapping": "blockcyclic:2" the way every
// CLI -mapping flag is written.
func (ms *MappingSpec) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		*ms = MappingSpec{Spec: s}
		return nil
	}
	// Alias dodges recursion into this method.
	type plain MappingSpec
	var p plain
	if err := json.Unmarshal(b, &p); err != nil {
		return err
	}
	*ms = MappingSpec(p)
	return nil
}

// IsDefault reports whether the spec denotes the cyclic default mapping
// (nil, empty, or literally "cyclic"). Default-mapped submissions can
// share a tenant engine's compiled-program cache directly.
func (ms *MappingSpec) IsDefault() bool {
	return ms == nil || (len(ms.Assign) == 0 && (ms.Spec == "" || ms.Spec == "cyclic"))
}

// Canonical is the stable text form of the spec used for hashing and
// display: "cyclic" for the default, the spec string, or "assign:w0,w1,…"
// for the explicit form.
func (ms *MappingSpec) Canonical() string {
	if ms.IsDefault() {
		return "cyclic"
	}
	if len(ms.Assign) > 0 {
		var b strings.Builder
		b.WriteString("assign:")
		for i, w := range ms.Assign {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%d", w)
		}
		return b.String()
	}
	return ms.Spec
}

// Build resolves the spec into a runnable mapping for g over workers,
// validating it (explicit assignments must cover every task and stay in
// [0, workers)). The parametric grammar is analyze.ParseMapping's — the
// same one the CLI -mapping flags accept.
func (ms *MappingSpec) Build(g *stf.Graph, workers int) (stf.Mapping, error) {
	if workers < 1 {
		return nil, fmt.Errorf("ingest: mapping needs a positive worker count (got %d)", workers)
	}
	if ms != nil && ms.Spec != "" && len(ms.Assign) > 0 {
		return nil, errors.New("ingest: mapping declares both spec and assign; use one")
	}
	if ms != nil && len(ms.Assign) > 0 {
		if g != nil && len(ms.Assign) != len(g.Tasks) {
			return nil, fmt.Errorf("ingest: explicit mapping assigns %d tasks, flow has %d", len(ms.Assign), len(g.Tasks))
		}
		assign := make([]stf.WorkerID, len(ms.Assign))
		for i, w := range ms.Assign {
			if w < 0 || w >= workers {
				return nil, fmt.Errorf("ingest: explicit mapping sends task %d to worker %d, out of range [0,%d)", i, w, workers)
			}
			assign[i] = stf.WorkerID(w)
		}
		return func(id stf.TaskID) stf.WorkerID {
			if id < 0 || int(id) >= len(assign) {
				return stf.SharedWorker
			}
			return assign[id]
		}, nil
	}
	spec := "cyclic"
	if ms != nil && ms.Spec != "" {
		spec = ms.Spec
	}
	return analyze.ParseMapping(spec, g, workers)
}

// ExplicitSpec samples m over the tasks of g into the explicit wire form,
// so any programmatic mapping can be shipped to the server losslessly.
func ExplicitSpec(g *stf.Graph, m stf.Mapping) *MappingSpec {
	assign := make([]int, len(g.Tasks))
	for i := range g.Tasks {
		assign[i] = int(m(stf.TaskID(i)))
	}
	return &MappingSpec{Assign: assign}
}

// Submission is one parsed, validated flow ready for preflight and
// compilation.
type Submission struct {
	// Graph is the recorded task flow.
	Graph *stf.Graph
	// MappingSpec is the submission's mapping in wire form (nil = cyclic
	// default); Mapping is its resolved, validated closure.
	MappingSpec *MappingSpec
	Mapping     stf.Mapping
	// Workers is the worker count the instance was validated against.
	Workers int
	// Hash is the content identity of (graph, mapping): two submissions
	// with equal hashes are the same program and may share one compiled
	// form. Graph JSON is canonical (fixed field order, no maps), so the
	// hash is stable across processes and machines.
	Hash string
	// Kernel is the body's "kernel" field: the task body a POST /v1/run
	// executes the flow with ("" when absent). KernelErr is set instead
	// when the field is not a string; only a run request rejects that, so
	// a body that is only submitted is accepted whatever its kernel field.
	Kernel    string
	KernelErr error
}

// envelope is a submission body decoded in one pass. The body is a bare
// graph (exactly the rio-graph -json document, its fields at the top
// level) or {"graph": …, "mapping": …}; either form may carry a mapping
// and a run request's "kernel". Field names match case-insensitively, as
// encoding/json matches them.
type envelope struct {
	// bare holds the top-level name, num_data and tasks; bareErr is the
	// first type error among them, which rejects only a bare-graph body
	// (an envelope ignores top-level graph fields).
	bare     stf.WireGraph
	bareErr  error
	hasTasks bool
	// graph is the last "graph" member; graphErr its type error.
	graph    stf.WireGraph
	graphErr error
	hasGraph bool

	mapping   *MappingSpec
	kernel    string
	kernelErr error
}

// decodeEnvelope decodes one JSON object from r member by member, each
// value straight into its typed field, and requires nothing but white
// space after it. A type mismatch is kept as the verdict of its member; a
// syntax or read error ends the decode.
func decodeEnvelope(r io.Reader) (*envelope, error) {
	dec := json.NewDecoder(r)
	tok, err := dec.Token()
	if err != nil {
		return nil, err
	}
	if tok != json.Delim('{') {
		return nil, errors.New("submission is not a JSON object")
	}
	env := &envelope{}
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return nil, err
		}
		key, _ := tok.(string)
		switch {
		case strings.EqualFold(key, "graph"):
			env.hasGraph = true
			env.graph = stf.WireGraph{}
			env.graphErr, err = splitTypeError(dec.Decode(&env.graph))
		case strings.EqualFold(key, "tasks"):
			env.hasTasks = true
			err = env.decodeBare(dec, &env.bare.Tasks)
		case strings.EqualFold(key, "name"):
			err = env.decodeBare(dec, &env.bare.Name)
		case strings.EqualFold(key, "num_data"):
			err = env.decodeBare(dec, &env.bare.NumData)
		case strings.EqualFold(key, "mapping"):
			err = dec.Decode(&env.mapping)
		case strings.EqualFold(key, "kernel"):
			var kerr error
			kerr, err = splitTypeError(dec.Decode(&env.kernel))
			if env.kernelErr == nil {
				env.kernelErr = kerr
			}
		default:
			var skip json.RawMessage
			err = dec.Decode(&skip)
		}
		if err != nil {
			return nil, err
		}
	}
	if _, err := dec.Token(); err != nil { // the closing brace
		return nil, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, errors.New("data after the submission object")
	}
	return env, nil
}

// decodeBare decodes a top-level graph member into v, keeping its first
// type error in bareErr.
func (env *envelope) decodeBare(dec *json.Decoder, v any) error {
	typeErr, err := splitTypeError(dec.Decode(v))
	if env.bareErr == nil {
		env.bareErr = typeErr
	}
	return err
}

// splitTypeError separates a json.Decoder.Decode error that leaves the
// stream usable (a value of the wrong type) from one that ends it.
func splitTypeError(err error) (typeErr, fatal error) {
	var te *json.UnmarshalTypeError
	if errors.As(err, &te) {
		return err, nil
	}
	return nil, err
}

// Parse reads one submission — a bare graph JSON document or an
// envelope adding a mapping — validates the (graph, workers, mapping)
// instance through the same analyze entry points the CLI tools use, and
// computes its content hash. The body is decoded once: the graph, the
// mapping and the run request's kernel come out of the same pass.
func Parse(r io.Reader, workers int) (*Submission, error) {
	lr := &io.LimitedReader{R: r, N: MaxBodyBytes + 1}
	env, err := decodeEnvelope(lr)
	if lr.N == 0 {
		return nil, fmt.Errorf("ingest: submission exceeds %d bytes", MaxBodyBytes)
	}
	if err != nil {
		return nil, fmt.Errorf("ingest: decoding submission: %w", err)
	}
	wg, wgErr := &env.graph, env.graphErr
	if !env.hasGraph {
		if !env.hasTasks {
			return nil, errors.New(`ingest: submission has neither "graph" nor "tasks"; POST a graph document or {"graph": …, "mapping": …}`)
		}
		wg, wgErr = &env.bare, env.bareErr
	}
	if wgErr != nil {
		return nil, fmt.Errorf("ingest: stf: decoding graph: %w", wgErr)
	}
	g, err := wg.Graph()
	if err != nil {
		return nil, fmt.Errorf("ingest: %w", err)
	}
	sub, err := NewSubmission(g, env.mapping, workers)
	if err != nil {
		return nil, err
	}
	sub.Kernel, sub.KernelErr = env.kernel, env.kernelErr
	return sub, nil
}

// NewSubmission validates an already-parsed graph + mapping spec and
// derives its hash — the non-HTTP entry used by tools that built the
// graph in process.
func NewSubmission(g *stf.Graph, ms *MappingSpec, workers int) (*Submission, error) {
	m, err := ms.Build(g, workers)
	if err != nil {
		return nil, err
	}
	if err := analyze.ValidateInstance(g, workers, m); err != nil {
		return nil, err
	}
	hash, err := Hash(g, ms)
	if err != nil {
		return nil, err
	}
	return &Submission{Graph: g, MappingSpec: ms, Mapping: m, Workers: workers, Hash: hash}, nil
}

// Hash returns the content identity of a (graph, mapping) pair: the
// hex-encoded SHA-256 of the canonical graph serialization and the
// canonical mapping form. Submitting the same flow twice — from
// different clients, processes or machines — yields the same hash, which
// is what lets a server compile it once and replay it for everyone.
func Hash(g *stf.Graph, ms *MappingSpec) (string, error) {
	h := sha256.New()
	if err := g.WriteJSON(h); err != nil {
		return "", fmt.Errorf("ingest: hashing graph: %w", err)
	}
	io.WriteString(h, "\x00mapping:")
	io.WriteString(h, ms.Canonical())
	return hex.EncodeToString(h.Sum(nil)[:16]), nil
}

// Preflight runs the static-analysis passes over a validated submission
// exactly as rio.Options.Preflight would before a run: findings of
// Warning or worse reject it with a *analyze.PreflightError. The
// returned report carries every finding either way.
func Preflight(sub *Submission, passes analyze.Passes) (*analyze.Report, error) {
	report := analyze.Graph(sub.Graph, analyze.Config{
		Passes:  passes,
		Workers: sub.Workers,
		Mapping: sub.Mapping,
		InOrder: true,
	})
	if report.Reject() {
		return report, &analyze.PreflightError{Report: report}
	}
	return report, nil
}

// LoadGraphFile reads a bare graph JSON file (as written by rio-graph
// -json) — the CLI half of the shared submission path.
func LoadGraphFile(path string) (*stf.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return stf.ReadJSON(f)
}

// Workload builds one of the named generator workloads; the grammar is
// analyze.WorkloadGraph's, shared by rio-vet, rio-graph and rio-serve's
// test harness.
func Workload(name string, size int, seed int64) (*stf.Graph, error) {
	return analyze.WorkloadGraph(name, size, seed)
}

// BuildMapping resolves a CLI -mapping spec string for g over workers
// (the parametric grammar of MappingSpec.Spec).
func BuildMapping(spec string, g *stf.Graph, workers int) (stf.Mapping, error) {
	return (&MappingSpec{Spec: spec}).Build(g, workers)
}

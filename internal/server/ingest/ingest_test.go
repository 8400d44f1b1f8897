package ingest

// Unit tests of the shared submission path: envelope vs bare-graph
// parsing, mapping-spec resolution and validation, content-hash
// stability (the mapping half of the wire format; the graph half's
// round-trip fuzz lives in internal/stf).

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"rio/internal/analyze"
	"rio/internal/graphs"
	"rio/internal/stf"
)

func wire(t *testing.T, g *stf.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestParseBareGraph(t *testing.T) {
	g := graphs.LU(3)
	sub, err := Parse(bytes.NewReader(wire(t, g)), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(sub.Graph.Tasks) != len(g.Tasks) || sub.Graph.NumData != g.NumData {
		t.Errorf("parsed %d tasks/%d data, want %d/%d", len(sub.Graph.Tasks), sub.Graph.NumData, len(g.Tasks), g.NumData)
	}
	if !sub.MappingSpec.IsDefault() {
		t.Error("bare graph did not default to the cyclic mapping")
	}
	if sub.Hash == "" {
		t.Error("no content hash derived")
	}
}

func TestParseEnvelopeWithMapping(t *testing.T) {
	g := graphs.LU(3)
	body := []byte(`{"graph":` + string(wire(t, g)) + `,"mapping":{"spec":"blockcyclic:2"}}`)
	sub, err := Parse(bytes.NewReader(body), 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := sub.MappingSpec.Canonical(); got != "blockcyclic:2" {
		t.Errorf("mapping = %q, want blockcyclic:2", got)
	}

	// The shorthand string form must parse to the same submission —
	// same mapping, same identity — as the object form.
	short, err := Parse(bytes.NewReader([]byte(`{"graph":`+string(wire(t, g))+`,"mapping":"blockcyclic:2"}`)), 4)
	if err != nil {
		t.Fatal(err)
	}
	if short.MappingSpec.Canonical() != "blockcyclic:2" || short.Hash != sub.Hash {
		t.Errorf("string-form mapping: canonical %q hash %q, want %q %q",
			short.MappingSpec.Canonical(), short.Hash, "blockcyclic:2", sub.Hash)
	}

	bare, err := Parse(bytes.NewReader(wire(t, g)), 4)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Hash == bare.Hash {
		t.Error("mapping is not part of the flow identity: envelope and bare hashes collide")
	}
}

func TestParseRejects(t *testing.T) {
	for name, body := range map[string]string{
		"not json":        "{nope",
		"no graph":        `{"mapping":{"spec":"cyclic"}}`,
		"bad mode":        `{"name":"x","num_data":1,"tasks":[{"kernel":0,"accesses":[{"data":0,"mode":"X"}]}]}`,
		"data oob":        `{"name":"x","num_data":1,"tasks":[{"kernel":0,"accesses":[{"data":9,"mode":"W"}]}]}`,
		"both mappings":   `{"graph":{"name":"x","num_data":0,"tasks":[]},"mapping":{"spec":"block","assign":[0]}}`,
		"assign mismatch": `{"graph":{"name":"x","num_data":1,"tasks":[{"kernel":0,"accesses":[{"data":0,"mode":"W"}]}]},"mapping":{"assign":[0,1]}}`,
		"assign oob":      `{"graph":{"name":"x","num_data":1,"tasks":[{"kernel":0,"accesses":[{"data":0,"mode":"W"}]}]},"mapping":{"assign":[7]}}`,
		"unknown spec":    `{"graph":{"name":"x","num_data":0,"tasks":[]},"mapping":{"spec":"warp"}}`,
	} {
		if _, err := Parse(strings.NewReader(body), 4); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestHashStability(t *testing.T) {
	g := graphs.Cholesky(4)
	h1, err := Hash(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := Hash(g, &MappingSpec{Spec: "cyclic"})
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Error("nil and explicit-cyclic mapping specs hash differently")
	}
	// Same bytes parsed twice hash identically (the dedup property the
	// server's flow table relies on).
	s1, err := Parse(bytes.NewReader(wire(t, g)), 4)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Parse(bytes.NewReader(wire(t, g)), 4)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Hash != s2.Hash {
		t.Error("identical submissions hash differently")
	}
	if s1.Hash != h1 {
		t.Error("Parse and Hash disagree on the same flow")
	}
	// The flow id README's Serving transcript shows: the hash is taken over
	// WriteJSON's bytes, so a change to the writer's output moves every id.
	lu, err := Workload("lu", 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	const readmeID = "44eedfe7e6865ff9b46cab4d435dfc1b"
	if id, err := Hash(lu, nil); err != nil || id != readmeID {
		t.Errorf("Hash(lu 6, cyclic) = %q, %v; want %s", id, err, readmeID)
	}
}

// TestHashAllocsFlatInGraphSize: hashing serializes the graph in bounded
// chunks straight into the digest, so its allocations do not grow with the
// task count.
func TestHashAllocsFlatInGraphSize(t *testing.T) {
	const maxExtra = 4
	allocs := func(nt int) float64 {
		g := graphs.LU(nt)
		var err error
		n := testing.AllocsPerRun(5, func() {
			if _, e := Hash(g, nil); e != nil && err == nil {
				err = e
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	small, large := allocs(10), allocs(20)
	t.Logf("allocs/hash: LU(10) %.0f, LU(20) %.0f", small, large)
	if large-small > maxExtra {
		t.Errorf("hashing LU(20) allocates %.0f more than LU(10) (limit %d): the serialization allocates per task", large-small, maxExtra)
	}
}

// parseTwoPass is the submission decoder Parse replaced, kept as the
// reference for its acceptance: an envelope scan into raw members, then a
// second decode of the graph (the whole body for a bare graph), plus the
// server's third decode of the body for the run request's kernel.
func parseTwoPass(body []byte, workers int) (*Submission, error) {
	var env struct {
		Graph   json.RawMessage `json:"graph,omitempty"`
		Mapping *MappingSpec    `json:"mapping,omitempty"`
		Tasks   json.RawMessage `json:"tasks,omitempty"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		return nil, err
	}
	graphBytes := []byte(env.Graph)
	if env.Graph == nil {
		if env.Tasks == nil {
			return nil, errors.New("neither graph nor tasks")
		}
		graphBytes = body
	}
	g, err := stf.ReadJSON(bytes.NewReader(graphBytes))
	if err != nil {
		return nil, err
	}
	sub, err := NewSubmission(g, env.Mapping, workers)
	if err != nil {
		return nil, err
	}
	var rr struct {
		Kernel string `json:"kernel"`
	}
	sub.KernelErr = json.NewDecoder(bytes.NewReader(body)).Decode(&rr)
	sub.Kernel = rr.Kernel
	return sub, nil
}

// checkParseMatchesTwoPass fails when Parse and the two-pass reference
// disagree on body: one accepts and the other rejects, or both accept but
// differ in graph, mapping, flow id, kernel or whether the kernel is
// malformed.
func checkParseMatchesTwoPass(t *testing.T, body []byte) {
	t.Helper()
	want, wantErr := parseTwoPass(body, 4)
	got, gotErr := Parse(bytes.NewReader(body), 4)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("body %q: Parse error %v, two-pass error %v", body, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if !reflect.DeepEqual(got.Graph, want.Graph) {
		t.Fatalf("body %q: graphs differ:\nParse:    %+v\ntwo-pass: %+v", body, got.Graph, want.Graph)
	}
	if !reflect.DeepEqual(got.MappingSpec, want.MappingSpec) || got.Hash != want.Hash {
		t.Fatalf("body %q: mapping %+v id %s, two-pass %+v id %s", body, got.MappingSpec, got.Hash, want.MappingSpec, want.Hash)
	}
	if got.Kernel != want.Kernel || (got.KernelErr == nil) != (want.KernelErr == nil) {
		t.Fatalf("body %q: kernel %q (err %v), two-pass %q (err %v)", body, got.Kernel, got.KernelErr, want.Kernel, want.KernelErr)
	}
}

// parseCorpus covers both body forms and the members Parse resolves
// specially: null, duplicate and case-folded keys, type errors in members
// the chosen form ignores, malformed kernels, trailing data.
func parseCorpus(t testing.TB) [][]byte {
	var buf bytes.Buffer
	if err := graphs.LU(3).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	lu := buf.String()
	const one = `{"name":"x","num_data":1,"tasks":[{"kernel":0,"accesses":[{"data":0,"mode":"W"}]}]}`
	var corpus [][]byte
	for _, b := range []string{
		lu,
		`{"graph":` + lu + `,"kernel":"spin"}`,
		`{"graph":` + lu + `,"mapping":"blockcyclic:2","kernel":"noop"}`,
		`{"kernel":"sleep","graph":` + one + `}`,
		one[:len(one)-1] + `,"kernel":"spin","mapping":{"assign":[1]}}`,
		`{"graph":` + one + `,"kernel":5}`,
		`{"graph":` + one + `,"kernel":null}`,
		`{"graph":` + one + `,"kernel":"a","kernel":7}`,
		`{"graph":` + one + `,"Kernel":"spin","GRAPH":` + one + `}`,
		`{"gr\u0061ph":` + one + `,"\u212aernel":"spin","ma\u017fping":"block"}`,
		`{"ta\u017fks":[],"NUM_DATA":2}`,
		`{"graph":null}`,
		`{"tasks":null}`,
		`{"graph":{}}`,
		`{"graph":[]}`,
		`{"graph":5}`,
		`{"graph":` + one + `,"name":5,"num_data":"x","tasks":{"a":1}}`,
		`{"name":5,"tasks":[]}`,
		`{"num_data":"1","tasks":[]}`,
		`{"tasks":[{"kernel":"x"}]}`,
		`{"graph":{"num_data":"x"}}`,
		`{"graph":{"name":5},"graph":` + one + `}`,
		`{"graph":` + one + `,"graph":{"name":5}}`,
		`{"tasks":[{"kernel":1,"i":2}],"tasks":[{"kernel":3}],"num_data":0}`,
		`{"graph":` + one + `,"mapping":5}`,
		`{"graph":` + one + `,"mapping":null}`,
		`{"graph":` + one + `,"extra":{"deep":[1,2,{"x":null}]}}`,
		`{"graph":` + one + `} `,
		`{"graph":` + one + `} {}`,
		`{"graph":` + one + `}]`,
		`{"graph":` + one,
		`{"graph":` + one + `,}`,
		`{"mapping":"cyclic"}`,
		`{}`, `null`, `[]`, `"graph"`, ``, ` `,
	} {
		corpus = append(corpus, []byte(b))
	}
	return corpus
}

func TestParseMatchesTwoPass(t *testing.T) {
	for _, body := range parseCorpus(t) {
		checkParseMatchesTwoPass(t, body)
	}
}

// FuzzParseMatchesTwoPass: on any body, the one-pass Parse accepts exactly
// what the two-pass decoder accepted and yields the same submission.
func FuzzParseMatchesTwoPass(f *testing.F) {
	for _, body := range parseCorpus(f) {
		f.Add(body)
	}
	f.Fuzz(checkParseMatchesTwoPass)
}

func TestExplicitSpecRoundTrip(t *testing.T) {
	g := graphs.LU(3)
	const workers = 3
	m, err := BuildMapping("owner2d", g, workers)
	if err != nil {
		t.Fatal(err)
	}
	ms := ExplicitSpec(g, m)
	got, err := ms.Build(g, workers)
	if err != nil {
		t.Fatal(err)
	}
	for i := range g.Tasks {
		id := stf.TaskID(i)
		if got(id) != m(id) {
			t.Fatalf("task %d: explicit round-trip maps to %d, original to %d", i, got(id), m(id))
		}
	}
	if !strings.HasPrefix(ms.Canonical(), "assign:") {
		t.Errorf("canonical form = %q, want assign:…", ms.Canonical())
	}
}

func TestNewSubmissionValidates(t *testing.T) {
	g := graphs.LU(3)
	if _, err := NewSubmission(g, nil, 0); err == nil {
		t.Error("zero workers accepted")
	}
	if _, err := NewSubmission(g, &MappingSpec{Assign: []int{0}}, 2); err == nil {
		t.Error("short assignment accepted")
	}
	sub, err := NewSubmission(g, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Workers != 2 || sub.Mapping == nil {
		t.Errorf("submission not populated: %+v", sub)
	}
}

func TestPreflightRejectsWarning(t *testing.T) {
	// Read-before-first-write: the access lint warns, which rejects.
	g := stf.NewGraph("bad", 1)
	g.Add(0, 0, 0, 0, stf.R(0))
	g.Add(0, 0, 0, 0, stf.W(0))
	sub, err := NewSubmission(g, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	report, err := Preflight(sub, analyze.PassAccess|analyze.PassMapping)
	if err == nil {
		t.Fatal("uninit-read flow passed preflight")
	}
	if report == nil || report.Warnings == 0 {
		t.Error("rejection carries no warning findings")
	}

	clean, err := NewSubmission(graphs.LU(3), nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Preflight(clean, analyze.PassAccess|analyze.PassMapping); err != nil {
		t.Errorf("clean flow rejected: %v", err)
	}
}

func TestWorkloadGrammarShared(t *testing.T) {
	// The grammar is analyze.WorkloadGraph's — every workload the CLI
	// tools accept must come through here too.
	for _, wl := range []string{"lu", "cholesky", "gemm", "wavefront", "chain", "independent", "random"} {
		if _, err := Workload(wl, 3, 1); err != nil {
			t.Errorf("workload %s: %v", wl, err)
		}
	}
	if _, err := Workload("warp", 3, 1); err == nil {
		t.Error("unknown workload accepted")
	}
}

// benchBody is the POST /v1/run body of LU(10) (385 tasks): the envelope
// form with a kernel, as a client that submits and runs in one request
// sends it.
func benchBody(b *testing.B) []byte {
	var buf bytes.Buffer
	if err := graphs.LU(10).WriteJSON(&buf); err != nil {
		b.Fatal(err)
	}
	return []byte(`{"graph":` + buf.String() + `,"kernel":"noop"}`)
}

func BenchmarkParse(b *testing.B) {
	body := benchBody(b)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Parse(bytes.NewReader(body), 2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHash(b *testing.B) {
	g := graphs.LU(10)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Hash(g, nil); err != nil {
			b.Fatal(err)
		}
	}
}

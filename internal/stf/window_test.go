package stf

import (
	"fmt"
	"testing"
)

func TestWindowAddAndReset(t *testing.T) {
	w := NewWindow(3)
	if w.Len() != 0 || w.NumData() != 3 {
		t.Fatalf("fresh window: Len=%d NumData=%d", w.Len(), w.NumData())
	}
	id, err := w.Add(func() {}, 0, 0, 0, 0, []Access{R(0), W(1)})
	if err != nil || id != 0 {
		t.Fatalf("Add = %d, %v", id, err)
	}
	id, err = w.Add(nil, 2, 1, 2, 3, []Access{RW(1)})
	if err != nil || id != 1 {
		t.Fatalf("Add = %d, %v", id, err)
	}
	if got := w.Tasks(); len(got) != 2 || got[1].Kernel != 2 || got[1].I != 1 {
		t.Fatalf("Tasks = %+v", got)
	}
	if b := w.Bodies(); b[0] == nil || b[1] != nil {
		t.Fatal("bodies not parallel to tasks")
	}
	if got := w.Touched(); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("Touched = %v, want [0 1]", got)
	}
	w.Reset()
	if w.Len() != 0 || len(w.Touched()) != 0 {
		t.Fatal("Reset did not clear the window")
	}
	// Recording after Reset reuses storage and re-derives touched.
	if _, err := w.Add(func() {}, 0, 0, 0, 0, []Access{RW(2)}); err != nil {
		t.Fatal(err)
	}
	if got := w.Touched(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("Touched after reset = %v, want [2]", got)
	}
}

func TestWindowAddValidation(t *testing.T) {
	w := NewWindow(2)
	if _, err := w.Add(func() {}, 0, 0, 0, 0, []Access{R(2)}); err == nil {
		t.Error("out-of-range data accepted")
	}
	if _, err := w.Add(func() {}, 0, 0, 0, 0, []Access{{Data: 0, Mode: None}}); err == nil {
		t.Error("invalid mode accepted")
	}
	if _, err := w.Add(func() {}, 0, 0, 0, 0, []Access{R(0), W(0)}); err == nil {
		t.Error("duplicate data accepted")
	}
	if w.Len() != 0 {
		t.Errorf("rejected Adds recorded %d tasks", w.Len())
	}
}

// TestWindowTouchedGenerationWrap: the O(1) touched-clear survives the
// uint32 generation wraparound.
func TestWindowTouchedGenerationWrap(t *testing.T) {
	w := NewWindow(2)
	w.gen = ^uint32(0) // next Reset wraps
	if _, err := w.Add(func() {}, 0, 0, 0, 0, []Access{RW(0)}); err != nil {
		t.Fatal(err)
	}
	w.Reset()
	if w.gen != 1 {
		t.Fatalf("gen after wrap = %d, want 1", w.gen)
	}
	if _, err := w.Add(func() {}, 0, 0, 0, 0, []Access{RW(0)}); err != nil {
		t.Fatal(err)
	}
	if got := w.Touched(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("Touched after wrap = %v, want [0]", got)
	}
}

// TestWindowFingerprint: equal shapes hash equal regardless of bodies and
// kernel coordinates; access structure, modes, order, numData and task
// count all distinguish.
func TestWindowFingerprint(t *testing.T) {
	shape := func(numData int, build func(w *Window)) [32]byte {
		w := NewWindow(numData)
		build(w)
		return w.Fingerprint()
	}
	a := shape(3, func(w *Window) {
		w.Add(func() {}, 0, 0, 0, 0, []Access{R(0), W(1)})
		w.Add(func() {}, 0, 0, 0, 0, []Access{RW(1)})
	})
	b := shape(3, func(w *Window) { // same shape, different bodies/coords
		w.Add(nil, 9, 7, 8, 9, []Access{R(0), W(1)})
		w.Add(nil, 4, 1, 1, 1, []Access{RW(1)})
	})
	if a != b {
		t.Error("same shape with different payloads hashed differently")
	}
	variants := [][32]byte{
		shape(3, func(w *Window) { // different mode
			w.Add(nil, 0, 0, 0, 0, []Access{R(0), W(1)})
			w.Add(nil, 0, 0, 0, 0, []Access{W(1)})
		}),
		shape(3, func(w *Window) { // different data
			w.Add(nil, 0, 0, 0, 0, []Access{R(0), W(2)})
			w.Add(nil, 0, 0, 0, 0, []Access{RW(1)})
		}),
		shape(3, func(w *Window) { // extra task
			w.Add(nil, 0, 0, 0, 0, []Access{R(0), W(1)})
			w.Add(nil, 0, 0, 0, 0, []Access{RW(1)})
			w.Add(nil, 0, 0, 0, 0, []Access{RW(1)})
		}),
		shape(4, func(w *Window) { // different numData
			w.Add(nil, 0, 0, 0, 0, []Access{R(0), W(1)})
			w.Add(nil, 0, 0, 0, 0, []Access{RW(1)})
		}),
	}
	for i, v := range variants {
		if v == a {
			t.Errorf("variant %d collided with the base shape", i)
		}
	}
}

// TestWindowFingerprintPinned pins the shape digest of a fixed 256-task
// window, 2 accesses per task: a change to the hashed byte stream would
// silently split every cached shape of a running pipeline. It also checks
// that fingerprinting twice, and again after a Reset and re-record, gives
// the same digest.
func TestWindowFingerprintPinned(t *testing.T) {
	const want = "0f9e91053c29e7933d44686347412e526baa0ba668b74aab3302e1910b0a7706"
	modes := []AccessMode{ReadOnly, WriteOnly, ReadWrite, Reduction}
	w := NewWindow(64)
	record := func() {
		for i := 0; i < 256; i++ {
			acc := []Access{R(DataID(i % 64)), {Data: DataID((i + 1) % 64), Mode: modes[i%4]}}
			if _, err := w.Add(nil, i%3, i, 0, 0, acc); err != nil {
				t.Fatal(err)
			}
		}
	}
	record()
	for pass := 0; pass < 3; pass++ {
		if pass == 2 {
			w.Reset()
			record()
		}
		if got := fmt.Sprintf("%x", w.Fingerprint()); got != want {
			t.Fatalf("pass %d: fingerprint = %s, want %s", pass, got, want)
		}
	}
}

// TestWindowCloneGraphOwnsStorage: a cloned graph survives the window's
// next epoch — Reset and re-record must not alter it.
func TestWindowCloneGraphOwnsStorage(t *testing.T) {
	w := NewWindow(2)
	w.Add(func() {}, 0, 0, 0, 0, []Access{R(0), W(1)})
	g := w.CloneGraph("clone")
	w.Reset()
	w.Add(func() {}, 0, 0, 0, 0, []Access{RW(0)})
	w.Add(func() {}, 0, 0, 0, 0, []Access{RW(1)})
	if len(g.Tasks) != 1 {
		t.Fatalf("clone has %d tasks, want 1", len(g.Tasks))
	}
	if len(g.Tasks[0].Accesses) != 2 || g.Tasks[0].Accesses[0].Data != 0 || g.Tasks[0].Accesses[1].Mode != WriteOnly {
		t.Fatalf("clone accesses mutated: %+v", g.Tasks[0].Accesses)
	}
	// The aliasing view, by contrast, tracks the window.
	v := w.Graph("view")
	if len(v.Tasks) != 2 {
		t.Fatalf("view has %d tasks, want 2", len(v.Tasks))
	}
}

// TestWindowCompiles: a window's cloned graph goes through the ordinary
// compiler — the streaming shape cache depends on that round trip.
func TestWindowCompiles(t *testing.T) {
	w := NewWindow(2)
	w.Add(nil, 0, 0, 0, 0, []Access{W(0)})
	w.Add(nil, 0, 1, 0, 0, []Access{R(0), W(1)})
	g := w.CloneGraph("window")
	cp, err := Compile(g, func(id TaskID) WorkerID { return WorkerID(id % 2) }, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Workers != 2 || len(cp.Tasks) != 2 {
		t.Fatalf("compiled: workers=%d tasks=%d", cp.Workers, len(cp.Tasks))
	}
}

package main

import "testing"

func TestMixSameSeedSameSequence(t *testing.T) {
	a, b := newMix(42, 0, 12), newMix(42, 0, 12)
	other, otherClient := newMix(43, 0, 12), newMix(42, 1, 12)
	sameSeed, diffSeed, diffClient := true, false, false
	for i := 0; i < 10000; i++ {
		ra := a.next()
		if ra != b.next() {
			sameSeed = false
		}
		if ra != other.next() {
			diffSeed = true
		}
		if ra != otherClient.next() {
			diffClient = true
		}
	}
	if !sameSeed {
		t.Error("the same seed and client gave different request sequences")
	}
	if !diffSeed || !diffClient {
		t.Error("a different seed or client gave the same request sequence")
	}
}

func TestMixShares(t *testing.T) {
	const n = 1 << 20
	g := newMix(7, 0, 12)
	var counts [numClasses]int
	pools := make([]int, 12)
	for i := 0; i < n; i++ {
		r := g.next()
		counts[r.class]++
		if r.pool < 0 || r.pool >= 12 {
			t.Fatalf("pool index %d out of range", r.pool)
		}
		pools[r.pool]++
	}
	for c, want := range [numClasses]float64{
		classRun:  float64(mixScale-mixHits-mixMisses) / mixScale,
		classHit:  float64(mixHits) / mixScale,
		classMiss: float64(mixMisses) / mixScale,
	} {
		got := float64(counts[c]) / n
		if d := got - want; d > 0.1*want || d < -0.1*want {
			t.Errorf("class %s share %.5f, want %.5f", classNames[c], got, want)
		}
	}
	for i, p := range pools {
		if p < n/12*9/10 {
			t.Errorf("pool entry %d drawn %d times of %d", i, p, n)
		}
	}
}

func TestMissFlowsAreSeededAndDistinct(t *testing.T) {
	a, err := missFlow(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := missFlow(5, 3)
	c, _ := missFlow(5, 4)
	d, _ := missFlow(6, 3)
	if a.id != b.id {
		t.Error("the same (seed, index) built different flows")
	}
	if a.id == c.id || a.id == d.id {
		t.Error("different (seed, index) pairs built the same flow")
	}
}

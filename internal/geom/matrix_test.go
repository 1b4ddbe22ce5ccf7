package geom

import (
	"math"
	"math/rand"
	"testing"
)

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 0, 1)
	m.Set(1, 2, 5)
	if m.At(0, 0) != 1 || m.At(1, 2) != 5 || m.At(0, 1) != 0 {
		t.Fatal("At/Set broken")
	}
	if !Equal(m.Row(1), Vector{0, 0, 5}) {
		t.Fatalf("Row = %v", m.Row(1))
	}
}

func TestIdentityMulVec(t *testing.T) {
	id := Identity(3)
	v := Vector{1, -2, 3}
	if !Equal(id.MulVec(v), v) {
		t.Fatal("I·v != v")
	}
}

func TestMulVec(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 0, 0)
	m.Set(0, 1, -1)
	m.Set(1, 0, 1)
	m.Set(1, 1, 0)
	// 90° rotation.
	if !ApproxEqual(m.MulVec(Vector{1, 0}), Vector{0, 1}, 1e-12) {
		t.Fatal("rotation wrong")
	}
}

func TestMatrixMulTranspose(t *testing.T) {
	a := NewMatrix(2, 3)
	for i := 0; i < 6; i++ {
		a.Data[i] = float64(i + 1)
	}
	b := a.Transpose()
	c := a.Mul(b) // 2x2
	// c[0][0] = 1+4+9 = 14, c[0][1] = 4+10+18 = 32
	if c.At(0, 0) != 14 || c.At(0, 1) != 32 || c.At(1, 1) != 77 {
		t.Fatalf("Mul wrong: %+v", c)
	}
}

func TestInvertRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(6)
		m := NewMatrix(n, n)
		for i := range m.Data {
			m.Data[i] = rng.NormFloat64()
		}
		inv, ok := m.Invert()
		if !ok {
			continue // singular draw; fine
		}
		prod := m.Mul(inv)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				want := 0.0
				if i == j {
					want = 1
				}
				if math.Abs(prod.At(i, j)-want) > 1e-8 {
					t.Fatalf("m·m⁻¹ != I at (%d,%d): %v", i, j, prod.At(i, j))
				}
			}
		}
	}
}

func TestInvertSingular(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 0, 1)
	m.Set(0, 1, 2)
	m.Set(1, 0, 2)
	m.Set(1, 1, 4)
	if _, ok := m.Invert(); ok {
		t.Fatal("singular matrix inverted")
	}
}

func TestGramSchmidt(t *testing.T) {
	vs := []Vector{{1, 1, 0}, {1, 0, 0}, {2, 1, 0}} // third is dependent
	b := GramSchmidt(vs)
	if len(b) != 2 {
		t.Fatalf("expected 2 basis vectors, got %d", len(b))
	}
	for i := range b {
		if !almostEq(b[i].Norm(), 1, 1e-10) {
			t.Fatal("not unit")
		}
		for j := i + 1; j < len(b); j++ {
			if math.Abs(Dot(b[i], b[j])) > 1e-10 {
				t.Fatal("not orthogonal")
			}
		}
	}
}

func TestCompleteBasis(t *testing.T) {
	start := GramSchmidt([]Vector{{1, 2, 3, 4}})
	b := CompleteBasis(4, start)
	if len(b) != 4 {
		t.Fatalf("expected full basis, got %d", len(b))
	}
	for i := range b {
		for j := i + 1; j < len(b); j++ {
			if math.Abs(Dot(b[i], b[j])) > 1e-9 {
				t.Fatal("not orthogonal")
			}
		}
		if !almostEq(b[i].Norm(), 1, 1e-9) {
			t.Fatal("not unit")
		}
	}
}

func TestPerturbDedup(t *testing.T) {
	pts := []Vector{{1, 1}, {1, 1}, {2, 2}}
	dd := Dedup(pts)
	if len(dd) != 2 {
		t.Fatalf("Dedup len = %d", len(dd))
	}
	pp := Perturb(pts, 1e-9, 1)
	if len(pp) != 3 {
		t.Fatal("Perturb must preserve length")
	}
	if Equal(pp[0], pp[1]) {
		t.Fatal("Perturb should separate duplicates")
	}
	if Dist(pp[0], pts[0]) > 1e-8 {
		t.Fatal("Perturb moved point too far")
	}
	// Determinism.
	pp2 := Perturb(pts, 1e-9, 1)
	for i := range pp {
		if !Equal(pp[i], pp2[i]) {
			t.Fatal("Perturb not deterministic")
		}
	}
}

// Dedup keeps the first occurrence of every distinct bit pattern, in
// input order: -0 and 0 are distinct, and the kept vectors are the
// input's own.
func TestDedupBitsAndOrder(t *testing.T) {
	negZero := math.Copysign(0, -1)
	pts := []Vector{{0, 1}, {negZero, 1}, {0, 1}, {2, 3}, {negZero, 1}, {2, 3, 0}, {2, 3}}
	got := Dedup(pts)
	want := []int{0, 1, 3, 5}
	if len(got) != len(want) {
		t.Fatalf("Dedup kept %d points, want %d", len(got), len(want))
	}
	for k, i := range want {
		if &got[k][0] != &pts[i][0] {
			t.Fatalf("Dedup position %d is not input point %d", k, i)
		}
	}
	// Many repeats of a small pool: the result is the pool in
	// first-occurrence order.
	rng := rand.New(rand.NewSource(3))
	pool := make([]Vector, 50)
	for i := range pool {
		pool[i] = Vector{float64(rng.Intn(4)), float64(rng.Intn(4)), float64(rng.Intn(4))}
	}
	var many []Vector
	var first []Vector
	seen := map[[3]float64]bool{}
	for r := 0; r < 2000; r++ {
		p := pool[rng.Intn(len(pool))]
		many = append(many, p)
		if k := [3]float64{p[0], p[1], p[2]}; !seen[k] {
			seen[k] = true
			first = append(first, p)
		}
	}
	got = Dedup(many)
	if len(got) != len(first) {
		t.Fatalf("Dedup kept %d points, want %d", len(got), len(first))
	}
	for i := range got {
		if !Equal(got[i], first[i]) {
			t.Fatalf("Dedup position %d: %v, want %v", i, got[i], first[i])
		}
	}
}

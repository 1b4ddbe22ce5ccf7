package transform

import (
	"math"
	"math/rand"
	"testing"

	"mincore/internal/geom"
	"mincore/internal/sphere"
)

func TestFattenBoundsAndInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, d := range []int{2, 3, 5} {
		pts := make([]geom.Vector, 500)
		for i := range pts {
			pts[i] = geom.NewVector(d)
			for j := range pts[i] {
				pts[i][j] = rng.NormFloat64()*3 + float64(j) // offset, anisotropic
			}
		}
		aff, mapped, err := Fatten(pts)
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range mapped {
			for j := range q {
				if q[j] < -1-1e-9 || q[j] > 1+1e-9 {
					t.Fatalf("d=%d: mapped point outside [-1,1]: %v", d, q)
				}
			}
			// Inverse round-trip.
			back := aff.Invert(q)
			if !geom.ApproxEqual(back, pts[i], 1e-6) {
				t.Fatalf("d=%d: inverse round-trip failed: %v vs %v", d, back, pts[i])
			}
		}
	}
}

func TestFattenPositiveMaxima(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, d := range []int{2, 4, 6} {
		pts := make([]geom.Vector, 2000)
		for i := range pts {
			pts[i] = geom.NewVector(d)
			for j := range pts[i] {
				pts[i][j] = rng.NormFloat64() + 10 // far from origin pre-transform
			}
		}
		_, mapped, err := Fatten(pts)
		if err != nil {
			t.Fatal(err)
		}
		alpha := EmpiricalFatness(geom.NewRows(mapped), 2000, 3)
		if alpha <= 0 {
			t.Fatalf("d=%d: fatness %v not positive", d, alpha)
		}
	}
}

func TestFattenAnisotropicData(t *testing.T) {
	// A thin rotated ellipse: the far-point basis should align with it and
	// the transform should round it out (fatness far better than raw).
	rng := rand.New(rand.NewSource(3))
	pts := make([]geom.Vector, 1000)
	c, s := math.Cos(0.7), math.Sin(0.7)
	for i := range pts {
		x, y := rng.NormFloat64()*10, rng.NormFloat64()*0.1
		pts[i] = geom.Vector{c*x - s*y + 5, s*x + c*y - 3}
	}
	_, mapped, err := Fatten(pts)
	if err != nil {
		t.Fatal(err)
	}
	alpha := EmpiricalFatness(geom.NewRows(mapped), 2000, 4)
	if alpha < 0.005 {
		t.Fatalf("anisotropic fatness too low: %v", alpha)
	}
}

func TestFattenDegenerate(t *testing.T) {
	// Points on a line in 2D must not blow up.
	pts := []geom.Vector{{0, 0}, {1, 1}, {2, 2}, {3, 3}}
	_, mapped, err := Fatten(pts)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range mapped {
		for _, v := range q {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("degenerate input produced %v", q)
			}
		}
	}
	if _, _, err := Fatten(nil); err == nil {
		t.Fatal("expected error on empty input")
	}
	// Single point.
	_, m1, err := Fatten([]geom.Vector{{5, -2}})
	if err != nil {
		t.Fatal(err)
	}
	if len(m1) != 1 {
		t.Fatal("single point lost")
	}
}

func TestEmpiricalFatnessKnown(t *testing.T) {
	// Unit circle points: fatness ≈ 1.
	circle := sphere.Circle(100)
	a := EmpiricalFatness(geom.NewRows(circle), 1000, 5)
	if a < 0.95 {
		t.Fatalf("circle fatness = %v want ≈ 1", a)
	}
	// Points all in the positive quadrant far from origin: not fat.
	pts := []geom.Vector{{1, 1}, {2, 1}, {1, 2}}
	if a := EmpiricalFatness(geom.NewRows(pts), 1000, 6); a > 0 {
		t.Fatalf("non-fat set reported fatness %v", a)
	}
	if EmpiricalFatness(geom.Rows{}, 10, 7) != 0 {
		t.Fatal("empty set should report 0")
	}
}

func TestApplyAllMatchesApply(t *testing.T) {
	pts := []geom.Vector{{1, 2}, {3, 4}, {-1, 0}}
	aff, mapped, err := Fatten(pts)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		if !geom.ApproxEqual(aff.Apply(p), mapped[i], 1e-12) {
			t.Fatal("ApplyAll disagrees with Apply")
		}
	}
}

package hull

import (
	"fmt"
	"slices"
	"testing"

	"mincore/internal/data"
	"mincore/internal/geom"
	"mincore/internal/lp"
	"mincore/internal/transform"
)

// Differential tests for the Clarkson pass on inputs prepared the way
// mincore.New prepares them, against references that share none of its
// machinery: the 3D incremental hull, and a brute-force LP per point.

const diffSeeds = 20

// prepareLikeNew applies mincore.New's preprocessing: exact-duplicate
// removal, the fattening affine map, and the default 1e-9 perturbation.
func prepareLikeNew(t testing.TB, pts []geom.Vector, seed int64) []geom.Vector {
	t.Helper()
	pts = geom.Dedup(pts)
	_, pts, err := transform.Fatten(pts)
	if err != nil {
		t.Fatalf("Fatten: %v", err)
	}
	return geom.Perturb(pts, 1e-9, seed+1)
}

type diffGen struct {
	name string
	gen  func(seed int64) data.Dataset
}

var (
	diffGens3D = []diffGen{
		{"RoadNetwork-10000", func(s int64) data.Dataset { return data.RoadNetwork(10000, s) }},
		{"Normal-2000-d3", func(s int64) data.Dataset { return data.Normal(2000, 3, s) }},
	}
	diffGensBrute = []diffGen{
		{"Normal-400-d4", func(s int64) data.Dataset { return data.Normal(400, 4, s) }},
		{"Climate-400", func(s int64) data.Dataset { return data.Climate(400, s) }},
		{"Normal-300-d5", func(s int64) data.Dataset { return data.Normal(300, 5, s) }},
	}
)

// forEachInput runs f on every prepared (generator, seed) input.
func forEachInput(t *testing.T, gens []diffGen, f func(t *testing.T, pts []geom.Vector)) {
	for _, g := range gens {
		for seed := int64(1); seed <= diffSeeds; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", g.name, seed), func(t *testing.T) {
				f(t, prepareLikeNew(t, g.gen(seed).Points, seed))
			})
		}
	}
}

func sortedCopy(ids []int) []int {
	out := slices.Clone(ids)
	slices.Sort(out)
	return out
}

func TestClarksonMatchesHull3D(t *testing.T) {
	forEachInput(t, diffGens3D, func(t *testing.T, pts []geom.Vector) {
		mesh, err := Hull3D(pts)
		if err != nil {
			t.Fatalf("Hull3D: %v", err)
		}
		if got := sortedCopy(mustExtremePoints(t, pts)); !slices.Equal(got, mesh.Vertices) {
			t.Fatalf("Clarkson ξ=%d vs Hull3D ξ=%d\n%v\n%v", len(got), len(mesh.Vertices), got, mesh.Vertices)
		}
	})
}

// bruteExtreme classifies every point by definition: p is extreme iff
// the LP for p ∈ conv(P∖{p}) is infeasible. One cold LP per point.
func bruteExtreme(pts []geom.Vector) []int {
	d := pts[0].Dim()
	var out []int
	row := make([]float64, len(pts)-1)
	for i, p := range pts {
		prob := lp.NewProblem(len(pts) - 1)
		for j := range row {
			prob.SetNonNegative(j)
		}
		for dim := 0; dim < d; dim++ {
			k := 0
			for j, q := range pts {
				if j != i {
					row[k] = q[dim]
					k++
				}
			}
			prob.AddEQ(row, p[dim])
		}
		for j := range row {
			row[j] = 1
		}
		prob.AddEQ(row, 1)
		if prob.Solve().Status == lp.Infeasible {
			out = append(out, i)
		}
	}
	return out
}

func TestClarksonMatchesBruteForce(t *testing.T) {
	forEachInput(t, diffGensBrute, func(t *testing.T, pts []geom.Vector) {
		want := bruteExtreme(pts)
		if got := sortedCopy(mustExtremePoints(t, pts)); !slices.Equal(got, want) {
			t.Fatalf("Clarkson ξ=%d vs brute force ξ=%d\n%v\n%v", len(got), len(want), got, want)
		}
	})
}

// The retained containment LP warm-starts from the previous point's
// basis; forcing every solve cold must reproduce the result exactly,
// order included.
func TestClarksonColdMatchesWarmBitwise(t *testing.T) {
	gens := append(slices.Clone(diffGens3D), diffGensBrute...)
	forEachInput(t, gens, func(t *testing.T, pts []geom.Vector) {
		warm := mustExtremePoints(t, pts)
		if cold := clarkson(pts, true); !slices.Equal(cold, warm) {
			t.Fatalf("cold solves diverge from warm:\ncold %v\nwarm %v", cold, warm)
		}
	})
}

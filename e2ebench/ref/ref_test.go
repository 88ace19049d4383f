package ref

import (
	"math"
	"testing"
)

// figure2 is the 12-node graph of the paper's Figure 2, in Table 1 row
// order: x, g0..g3, s0..s6.
func figure2() [][]int32 {
	const x, g0, g1, g2, g3, s0 = 0, 1, 2, 3, 4, 5
	s := func(i int32) int32 { return s0 + i }
	out := make([][]int32, 12)
	link := func(a, b int32) { out[a] = append(out[a], b) }
	link(g0, x)
	link(g2, x)
	link(s0, x)
	link(g1, g0)
	link(s(5), g0)
	link(g3, g2)
	link(s(6), g2)
	for i := int32(1); i <= 4; i++ {
		link(s(i), s0)
	}
	return out
}

// TestTable1 reproduces the printed Table 1 numbers: c = 0.85 and the
// unscaled core {g0, g1, g3}, whose jump puts 1/n on each core node,
// which is γ = |core|/n.
func TestTable1(t *testing.T) {
	g := NewGraph(figure2())
	core := []int32{1, 2, 4}
	prm := Params{Damping: 0.85, Gamma: float64(len(core)) / 12, Tau: 0.98, Rho: 10, Tol: 1e-15}
	s, err := Estimate(g, core, prm, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := func(i int) Record { return s.Record(i, prm) }
	for _, c := range []struct {
		name      string
		got, want float64
		tol       float64
	}{
		{"p_x", rec(0).P, 9.33, 0.005},
		{"M~_x", rec(0).AbsMass, 7.035, 0.0005},
		{"m~_x", rec(0).RelMass, 0.75, 0.005},
		{"m~_g0", rec(1).RelMass, 0.31, 0.005},
		{"m~_g2", rec(3).RelMass, 0.69, 0.005},
		{"m~_s0", rec(5).RelMass, 1, 1e-12},
	} {
		if math.Abs(c.got-c.want) > c.tol {
			t.Errorf("%s = %.6f, Table 1 prints %v", c.name, c.got, c.want)
		}
	}
	for i := range s.P {
		r := rec(i)
		if r.AbsMass != r.P-r.PCore || math.Abs(r.RelMass-(1-r.PCore/r.P)) > 1e-15 {
			t.Errorf("node %d: M~ or m~ inconsistent with p, p'", i)
		}
	}
}

// TestWarmStartSameFixpoint checks that a warm start changes only the
// iteration count, not the answer.
func TestWarmStartSameFixpoint(t *testing.T) {
	g := NewGraph(figure2())
	prm := Params{Damping: 0.85, Gamma: 0.85, Tol: 1e-14}
	cold, err := Estimate(g, []int32{1, 2, 4}, prm, nil)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Estimate(g, []int32{1, 2, 4}, prm, cold)
	if err != nil {
		t.Fatal(err)
	}
	tol := ScoreTol(g.N, prm.Damping, prm.Tol, prm.Tol)
	for i := range cold.P {
		if math.Abs(cold.P[i]-warm.P[i]) > tol || math.Abs(cold.PCore[i]-warm.PCore[i]) > tol {
			t.Errorf("node %d: warm %v/%v, cold %v/%v", i, warm.P[i], warm.PCore[i], cold.P[i], cold.PCore[i])
		}
	}
	if warm.Iterations[0] >= cold.Iterations[0] {
		t.Errorf("warm start took %d iterations, cold %d", warm.Iterations[0], cold.Iterations[0])
	}
}

// TestWebApply merges a batch with the benchmark's own adjacency code
// and checks the compacted graph.
func TestWebApply(t *testing.T) {
	w := &Web{index: map[string]int32{}}
	for i, name := range []string{"a", "b", "c", "d"} {
		w.Names = append(w.Names, name)
		w.Alive = append(w.Alive, true)
		w.index[name] = int32(i)
	}
	w.Out = [][]int32{{1, 2}, {2}, {0}, {0}}
	w.Core = []int32{0, 3}
	ops, err := ParseBatch(FormatBatch([]Op{
		{Kind: "+h", Src: "e"}, {Kind: "+e", Src: "e", Dst: "a"},
		{Kind: "-e", Src: "a", Dst: "b"}, {Kind: "-h", Src: "d"},
	}))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Apply(ops); err != nil {
		t.Fatal(err)
	}
	g, nodes, core := w.Compact()
	if g.N != 4 || len(nodes) != 4 || nodes[3] != 4 {
		t.Fatalf("compacted %d nodes %v", g.N, nodes)
	}
	if len(core) != 1 || core[0] != 0 {
		t.Errorf("core %v, want [0]", core)
	}
	if g.OutDeg[0] != 1 || g.OutDeg[3] != 1 {
		t.Errorf("out-degrees %v", g.OutDeg)
	}
	for _, bad := range [][]Op{
		{{Kind: "+h", Src: "a"}},
		{{Kind: "-e", Src: "a", Dst: "b"}},
		{{Kind: "+e", Src: "a", Dst: "c"}},
		{{Kind: "-h", Src: "d"}},
	} {
		if err := w.Apply(bad); err == nil {
			t.Errorf("batch %v applied, want a conflict", bad)
		}
	}
}

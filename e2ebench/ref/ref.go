// Package ref is the benchmark's independent spam-mass estimator. It
// shares no code with the program's solver or estimator packages: it
// decodes the graph file itself, computes the paper's linear PageRank
// by plain Jacobi iteration, once with the uniform jump and once with
// the γ-scaled core jump, and derives M̃ = p − p′, m̃ = 1 − p′/p and the
// Algorithm 2 labels in the scaled n/(1−c) units of the served records.
package ref

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
)

// Graph is a host graph as in-link CSR plus out-degrees, the only
// shape a pull-style Jacobi sweep needs.
type Graph struct {
	N       int
	OutDeg  []int32
	InStart []int64 // len N+1
	InAdj   []int32
}

// NewGraph builds a Graph from out-adjacency lists. Lists must not
// hold duplicates or self-links.
func NewGraph(out [][]int32) *Graph {
	n := len(out)
	g := &Graph{N: n, OutDeg: make([]int32, n), InStart: make([]int64, n+1)}
	for x, adj := range out {
		g.OutDeg[x] = int32(len(adj))
		for _, y := range adj {
			g.InStart[y+1]++
		}
	}
	for y := 0; y < n; y++ {
		g.InStart[y+1] += g.InStart[y]
	}
	g.InAdj = make([]int32, g.InStart[n])
	fill := append([]int64(nil), g.InStart[:n]...)
	for x, adj := range out {
		for _, y := range adj {
			g.InAdj[fill[y]] = int32(x)
			fill[y]++
		}
	}
	return g
}

// ReadOut decodes the program's binary graph file ("SMGR", uvarint
// version 1, uvarint node count, then per node a uvarint out-degree
// followed by gap-coded increasing targets) into out-adjacency lists
// that share one backing array.
func ReadOut(path string) ([][]int32, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<20)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil || string(magic) != "SMGR" {
		return nil, fmt.Errorf("ref: %s: not a binary graph file", path)
	}
	version, err := binary.ReadUvarint(br)
	if err != nil || version != 1 {
		return nil, fmt.Errorf("ref: %s: unsupported version %d (%v)", path, version, err)
	}
	n64, err := binary.ReadUvarint(br)
	if err != nil || n64 >= math.MaxInt32 {
		return nil, fmt.Errorf("ref: %s: bad node count %d (%v)", path, n64, err)
	}
	n := int(n64)
	degs := make([]int32, n)
	var targets []int32
	for x := 0; x < n; x++ {
		deg, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("ref: %s: node %d: %w", path, x, err)
		}
		degs[x] = int32(deg)
		var y uint64
		for i := uint64(0); i < deg; i++ {
			gap, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, fmt.Errorf("ref: %s: node %d: %w", path, x, err)
			}
			if i == 0 {
				y = gap
			} else {
				if gap == 0 {
					return nil, fmt.Errorf("ref: %s: node %d: duplicate edge", path, x)
				}
				y += gap
			}
			if y >= n64 || y == uint64(x) {
				return nil, fmt.Errorf("ref: %s: node %d: bad target %d", path, x, y)
			}
			targets = append(targets, int32(y))
		}
	}
	out := make([][]int32, n)
	off := 0
	for x, d := range degs {
		out[x] = targets[off : off+int(d) : off+int(d)]
		off += int(d)
	}
	return out, nil
}

// ErrNotConverged is returned when Jacobi hits its iteration cap.
var ErrNotConverged = errors.New("ref: Jacobi did not converge")

// Jacobi solves the linear PageRank system (I − cTᵀ)p = (1−c)v with
// p ← cTᵀp + (1−c)v, T the row-normalised adjacency (dangling rows
// stay zero), starting from start (or v when start is nil), until
// ‖p_k − p_{k−1}‖₁ < tol. It returns the solution and the iteration
// count.
func Jacobi(g *Graph, v, start []float64, c, tol float64, maxIter int) ([]float64, int, error) {
	cur := make([]float64, g.N)
	if start != nil {
		copy(cur, start)
	} else {
		copy(cur, v)
	}
	next := make([]float64, g.N)
	share := make([]float64, g.N)
	for it := 1; it <= maxIter; it++ {
		for x, d := range g.OutDeg {
			if d > 0 {
				share[x] = cur[x] / float64(d)
			} else {
				share[x] = 0
			}
		}
		diff := 0.0
		for y := 0; y < g.N; y++ {
			s := 0.0
			for _, x := range g.InAdj[g.InStart[y]:g.InStart[y+1]] {
				s += share[x]
			}
			nv := c*s + (1-c)*v[y]
			diff += math.Abs(nv - cur[y])
			next[y] = nv
		}
		cur, next = next, cur
		if diff < tol {
			return cur, it, nil
		}
	}
	return cur, maxIter, ErrNotConverged
}

// Params are the estimation and detection parameters.
type Params struct {
	Damping float64 // c
	Gamma   float64 // ‖w‖ of the core jump
	Tau     float64 // relative mass threshold τ
	Rho     float64 // scaled PageRank threshold ρ
	Tol     float64 // Jacobi L1 stopping bound
}

// Scores holds the scaled p and p′ of every node.
type Scores struct {
	P, PCore   []float64
	Iterations [2]int
}

// Estimate computes scaled p = PR(v) and p′ = PR(w), with v uniform and
// w = γ/|core| on every core node. warm, when non-nil, holds scaled
// starting vectors for the two solves.
func Estimate(g *Graph, core []int32, prm Params, warm *Scores) (*Scores, error) {
	if len(core) == 0 {
		return nil, errors.New("ref: empty core")
	}
	n := float64(g.N)
	scale := n / (1 - prm.Damping)
	v := make([]float64, g.N)
	for i := range v {
		v[i] = 1 / n
	}
	w := make([]float64, g.N)
	for _, x := range core {
		w[x] = prm.Gamma / float64(len(core))
	}
	out := &Scores{}
	for j, jump := range [][]float64{v, w} {
		var start []float64
		if warm != nil {
			start = make([]float64, g.N)
			src := warm.P
			if j == 1 {
				src = warm.PCore
			}
			for i := range start {
				start[i] = src[i] / scale
			}
		}
		raw, it, err := Jacobi(g, jump, start, prm.Damping, prm.Tol, 10000)
		if err != nil {
			return nil, err
		}
		for i := range raw {
			raw[i] *= scale
		}
		if j == 0 {
			out.P = raw
		} else {
			out.PCore = raw
		}
		out.Iterations[j] = it
	}
	return out, nil
}

// Record is one node's detection row in the served units.
type Record struct {
	P, PCore, AbsMass, RelMass float64
	Label                      string
}

// Record derives M̃ = p − p′, m̃ = 1 − p′/p (0 where p is 0) and the
// Algorithm 2 label: spam when p ≥ ρ and m̃ ≥ τ.
func (s *Scores) Record(x int, prm Params) Record {
	r := Record{P: s.P[x], PCore: s.PCore[x], Label: "good"}
	r.AbsMass = r.P - r.PCore
	if r.P > 0 {
		r.RelMass = r.AbsMass / r.P
	}
	if r.P >= prm.Rho && r.RelMass >= prm.Tau {
		r.Label = "spam"
	}
	return r
}

// ScoreTol is the largest scaled per-node difference two solves of one
// graph may show when each stopped at an L1 step below its epsilon: a
// Jacobi iterate whose last step was r lies within c/(1−c)·r of the
// fixpoint in L1, and scaling multiplies by n/(1−c).
func ScoreTol(n int, c, epsA, epsB float64) float64 {
	return c / (1 - c) * (epsA + epsB) * float64(n) / (1 - c)
}

// RelTol bounds the difference in m̃ = 1 − p′/p implied by a score
// tolerance t around reference values p and p′.
func RelTol(p, pCore, t float64) float64 {
	if p <= t {
		return math.Inf(1)
	}
	return (t + math.Abs(pCore/p)*t) / (p - t)
}

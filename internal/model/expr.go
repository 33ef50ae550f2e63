package model

import (
	"fmt"
	"strings"

	"ctcomm/internal/netsim"
	"ctcomm/internal/pattern"
)

// Expr is a copy-transfer expression: a basic transfer, a network
// transfer, or a sequential/parallel composition.
type Expr interface {
	fmt.Stringer
	isExpr()
}

// Basic is a leaf holding one intra-node basic transfer.
type Basic struct{ Term Term }

// Net is a leaf holding one network transfer (Nd or Nadp).
type Net struct{ Mode netsim.Mode }

// Seq is the sequential composition X ∘ Y ∘ ...: the steps share a
// resource, so their times add (reciprocal throughput sum).
type Seq struct{ Parts []Expr }

// Par is the parallel composition X ‖ Y ‖ ...: the steps use disjoint
// resources, so the slowest step limits throughput.
type Par struct{ Parts []Expr }

func (Basic) isExpr() {}
func (Net) isExpr()   {}
func (Seq) isExpr()   {}
func (Par) isExpr()   {}

// String renders the expression in the paper's (ASCII) notation:
// "o" for ∘ and "||" for ‖, parenthesizing compositions.
func (b Basic) String() string { return b.Term.String() }

func (n Net) String() string { return n.Mode.String() }

func (s Seq) String() string { return join(s.Parts, " o ") }

func (p Par) String() string { return join(p.Parts, " || ") }

func join(parts []Expr, sep string) string {
	ss := make([]string, len(parts))
	for i, p := range parts {
		switch p.(type) {
		case Seq, Par:
			ss[i] = "(" + p.String() + ")"
		default:
			ss[i] = p.String()
		}
	}
	return strings.Join(ss, sep)
}

// NewSeq builds a sequential composition, flattening nested Seqs.
func NewSeq(parts ...Expr) Expr {
	flat := make([]Expr, 0, len(parts))
	for _, p := range parts {
		if s, ok := p.(Seq); ok {
			flat = append(flat, s.Parts...)
		} else {
			flat = append(flat, p)
		}
	}
	if len(flat) == 1 {
		return flat[0]
	}
	return Seq{Parts: flat}
}

// NewPar builds a parallel composition, flattening nested Pars.
func NewPar(parts ...Expr) Expr {
	flat := make([]Expr, 0, len(parts))
	for _, p := range parts {
		if q, ok := p.(Par); ok {
			flat = append(flat, q.Parts...)
		} else {
			flat = append(flat, p)
		}
	}
	if len(flat) == 1 {
		return flat[0]
	}
	return Par{Parts: flat}
}

// Boundary returns the end-to-end read and write patterns of an
// expression: the pattern with which data leaves source memory and the
// pattern with which it lands in destination memory. For a Par it is
// the patterns of the sending and receiving elements; a pure network
// expression has no memory boundary (ok=false on that side is reported
// as the port pattern 0).
func Boundary(e Expr) (read, write pattern.Spec) {
	switch v := e.(type) {
	case Basic:
		return v.Term.Read, v.Term.Write
	case Net:
		return pattern.Fixed(), pattern.Fixed()
	case Seq:
		if len(v.Parts) == 0 {
			return pattern.Fixed(), pattern.Fixed()
		}
		r, _ := Boundary(v.Parts[0])
		_, w := Boundary(v.Parts[len(v.Parts)-1])
		return r, w
	case Par:
		read, write = pattern.Fixed(), pattern.Fixed()
		for _, p := range v.Parts {
			r, w := Boundary(p)
			if r.IsMemory() {
				read = r
			}
			if w.IsMemory() {
				write = w
			}
		}
		return read, write
	default:
		return pattern.Fixed(), pattern.Fixed()
	}
}

// Check validates the composition rules of §3.3: within a Seq, the write
// pattern of each step must match the read pattern of the next (data are
// handed over in the same layout they were produced in).
func Check(e Expr) error {
	switch v := e.(type) {
	case Basic, Net:
		return nil
	case Seq:
		for _, p := range v.Parts {
			if err := Check(p); err != nil {
				return err
			}
		}
		for i := 0; i+1 < len(v.Parts); i++ {
			_, w := Boundary(v.Parts[i])
			r, _ := Boundary(v.Parts[i+1])
			// Port boundaries (pattern 0) hand data over through the
			// network and always match.
			if w.IsMemory() && r.IsMemory() && w != r {
				return fmt.Errorf("model: pattern mismatch in %q: step %d writes %s but step %d reads %s",
					e, i, w, i+1, r)
			}
		}
		return nil
	case Par:
		for _, p := range v.Parts {
			if err := Check(p); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("model: unknown expression type %T", e)
	}
}

// Evaluate estimates the throughput |e| in MB/s using the rate table and
// the three composition rules, at the given network congestion factor.
func Evaluate(e Expr, rt *RateTable, congestion float64) (float64, error) {
	switch v := e.(type) {
	case Basic:
		return rt.Rate(v.Term)
	case Net:
		return rt.NetRate(v.Mode, congestion)
	case Seq:
		if len(v.Parts) == 0 {
			return 0, fmt.Errorf("model: empty sequential composition")
		}
		inv := 0.0
		for _, p := range v.Parts {
			r, err := Evaluate(p, rt, congestion)
			if err != nil {
				return 0, err
			}
			if r <= 0 {
				return 0, fmt.Errorf("model: non-positive rate for %q", p)
			}
			inv += 1 / r
		}
		return 1 / inv, nil
	case Par:
		if len(v.Parts) == 0 {
			return 0, fmt.Errorf("model: empty parallel composition")
		}
		min := 0.0
		for i, p := range v.Parts {
			r, err := Evaluate(p, rt, congestion)
			if err != nil {
				return 0, err
			}
			if i == 0 || r < min {
				min = r
			}
		}
		return min, nil
	default:
		return 0, fmt.Errorf("model: unknown expression type %T", e)
	}
}

// Bottleneck returns the leaf (basic or network transfer) that limits
// the expression's throughput: the parallel branch with the minimum
// rate, descending through sequential compositions into their slowest
// stage. For a sequential composition every stage contributes, so the
// slowest stage is reported as the first optimization target (it has
// the largest share of the reciprocal sum).
func Bottleneck(e Expr, rt *RateTable, congestion float64) (Expr, float64, error) {
	switch v := e.(type) {
	case Basic, Net:
		r, err := Evaluate(e, rt, congestion)
		return e, r, err
	case Seq:
		var worst Expr
		worstRate := 0.0
		for _, p := range v.Parts {
			leaf, r, err := Bottleneck(p, rt, congestion)
			if err != nil {
				return nil, 0, err
			}
			if worst == nil || r < worstRate {
				worst, worstRate = leaf, r
			}
		}
		if worst == nil {
			return nil, 0, fmt.Errorf("model: empty sequential composition")
		}
		return worst, worstRate, nil
	case Par:
		var worst Expr
		worstRate := 0.0
		for _, p := range v.Parts {
			r, err := Evaluate(p, rt, congestion)
			if err != nil {
				return nil, 0, err
			}
			if worst == nil || r < worstRate {
				// Descend into the limiting branch for its own leaf.
				leaf, lr, err := Bottleneck(p, rt, congestion)
				if err != nil {
					return nil, 0, err
				}
				worst, worstRate = leaf, lr
				_ = r
			}
		}
		if worst == nil {
			return nil, 0, fmt.Errorf("model: empty parallel composition")
		}
		return worst, worstRate, nil
	default:
		return nil, 0, fmt.Errorf("model: unknown expression type %T", e)
	}
}

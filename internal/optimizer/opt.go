package optimizer

import (
	"fmt"
	"math"

	"neurdb/internal/catalog"
	"neurdb/internal/plan"
	"neurdb/internal/rel"
	"neurdb/internal/stats"
)

// Cost-model constants, following PostgreSQL's defaults in spirit.
const (
	seqPageCost  = 1.0
	randPageCost = 4.0
	cpuTupleCost = 0.01
	cpuOpCost    = 0.0025
	hashEntry    = 0.015
)

// HintSet constrains the plan search space; the Bao baseline's arms are
// hint sets (paper §5.3 / Bao SIGMOD'21).
type HintSet struct {
	Name        string
	NoHashJoin  bool
	NoIndexJoin bool
	NoNLJoin    bool
	NoIndexScan bool
}

// StandardHintSets returns the arm set used by the Bao baseline and by
// candidate generation for the learned optimizer.
func StandardHintSets() []HintSet {
	return []HintSet{
		{Name: "default"},
		{Name: "no-hashjoin", NoHashJoin: true},
		{Name: "no-indexjoin", NoIndexJoin: true},
		{Name: "no-nljoin", NoNLJoin: true},
		{Name: "no-indexscan", NoIndexScan: true, NoIndexJoin: true},
		{Name: "hash-only", NoIndexJoin: true, NoNLJoin: true},
	}
}

// StatsView resolves the statistics a planner sees for a table. Live
// planning uses Table.Stats; the "PostgreSQL under drift" baseline plugs in
// stale snapshots taken at its last ANALYZE.
type StatsView func(*catalog.Table) *stats.TableStats

// LiveStats is the default StatsView: current statistics.
func LiveStats(t *catalog.Table) *stats.TableStats { return t.Stats }

// Optimizer plans bound queries.
type Optimizer struct {
	Stats StatsView
	Hints HintSet
	// CardScale perturbs join selectivity estimates; the Lero baseline
	// generates candidates by sweeping it (e.g. 0.1, 1, 10).
	CardScale float64
}

// New creates an optimizer with live statistics and default hints.
func New() *Optimizer {
	return &Optimizer{Stats: LiveStats, CardScale: 1}
}

type subPlan struct {
	node   plan.Node
	layout []int // table indexes in output column order
	rows   float64
	cost   float64
}

// globalToPlan builds the column remap from global query coordinates to the
// subplan's output coordinates for a given layout.
func (q *Query) globalToPlan(layout []int) func(int) int {
	mapping := make(map[int]int)
	off := 0
	for _, ti := range layout {
		arity := q.Tables[ti].Schema.Arity()
		for c := 0; c < arity; c++ {
			mapping[q.Offsets[ti]+c] = off + c
		}
		off += arity
	}
	return func(i int) int {
		if j, ok := mapping[i]; ok {
			return j
		}
		return 0
	}
}

func layoutSchema(q *Query, layout []int) *rel.Schema {
	out := &rel.Schema{}
	for _, ti := range layout {
		for _, c := range q.Tables[ti].Schema.Cols {
			cc := c
			cc.Name = q.Aliases[ti] + "." + cc.Name
			out.Cols = append(out.Cols, cc)
		}
	}
	return out
}

// Plan produces the cheapest physical plan under the configured hints.
func (o *Optimizer) Plan(q *Query) (plan.Node, error) {
	if o.CardScale == 0 {
		o.CardScale = 1
	}
	if o.Stats == nil {
		o.Stats = LiveStats
	}
	n := len(q.Tables)
	// Base table access paths.
	base := make([]subPlan, n)
	for i := range q.Tables {
		base[i] = o.bestAccessPath(q, i)
	}
	best := base[0]
	if n > 1 {
		var err error
		best, err = o.joinDP(q, base)
		if err != nil {
			return nil, err
		}
	}
	return o.finish(q, best)
}

// Generic selectivities for comparisons against a parameter, whose value is
// unknown when the plan is built. Both are PostgreSQL's planner defaults
// (selfuncs.h): DEFAULT_INEQ_SEL for a single inequality, and
// DEFAULT_RANGE_INEQ_SEL for a lower and an upper bound on one column, which
// together almost always describe a narrow window, not a third of a third.
const (
	genericIneqSel  = 0.33
	genericRangeSel = 0.005
)

// AccessPath picks the row source for a single-table statement whose
// predicate is already bound to t's schema (nil selects every row): the
// same SeqScan-or-IndexScan decision Plan makes for each base table of a
// SELECT, which is how UPDATE and DELETE find their rows the way reads do.
func (o *Optimizer) AccessPath(t *catalog.Table, where rel.Expr) plan.Node {
	if o.Stats == nil {
		o.Stats = LiveStats
	}
	q := SingleTableQuery(t)
	if where != nil {
		q.Local[0] = rel.SplitConjuncts(where)
	}
	return o.bestAccessPath(q, 0).node
}

// bestAccessPath picks SeqScan or IndexScan for one base table. It is the
// only place an access path is chosen: the table's local conjuncts are
// merged into one probe per column (mergeProbes), each probe is priced once,
// and that price feeds both the row estimate every candidate shares and the
// cost of scanning an index on the probe's column.
func (o *Optimizer) bestAccessPath(q *Query, ti int) subPlan {
	t := q.Tables[ti]
	ts := o.Stats(t)
	rows := float64(ts.Rows())
	conjs := q.Local[ti]
	probes, merged := mergeProbes(conjs)
	sel := 1.0
	for ci, c := range conjs {
		if !merged[ci] {
			sel *= selOf(ts, c)
		}
	}
	for i := range probes {
		probes[i].sel = probes[i].selectivity(ts)
		sel *= probes[i].sel
	}
	outRows := math.Max(rows*sel, 0.5)
	out := layoutSchema(q, []int{ti})
	pages := float64(t.Heap.NumPages())
	seqCost := pages*seqPageCost + rows*cpuTupleCost*(1+0.25*float64(len(conjs)))
	bestNode := plan.Node(&plan.SeqScan{
		Base:   plan.Base{Out: out, EstRows: outRows, EstCost: seqCost},
		Table:  t,
		Filter: rel.CombineConjuncts(conjs),
	})
	bestCost := seqCost

	if !o.Hints.NoIndexScan {
		for _, p := range probes {
			ix := t.IndexOn(p.col)
			if ix == nil {
				continue
			}
			matched := math.Max(rows*p.sel, 0.5)
			cost := math.Log2(rows+2)*cpuOpCost + matched*(randPageCost*0.25+cpuTupleCost)
			if cost >= bestCost {
				continue
			}
			eq, lo, hi := p.eq, p.lo, p.hi
			if eq.set() {
				// Range bounds beside an equality add nothing to the probe;
				// they stay behind as filters.
				lo, hi = indexBound{}, indexBound{}
			}
			// Every conjunct the probe does not answer exactly — a strict
			// bound included: the B-tree range scan is inclusive at both
			// ends — stays in the residual filter.
			residual := make([]rel.Expr, 0, len(conjs))
			for ci, c := range conjs {
				if !eq.answers(ci) && !lo.answers(ci) && !hi.answers(ci) {
					residual = append(residual, c)
				}
			}
			bestCost = cost
			bestNode = &plan.IndexScan{
				Base:  plan.Base{Out: out, EstRows: outRows, EstCost: cost},
				Table: t, Index: ix,
				Eq: eq.operand, Lo: lo.operand, Hi: hi.operand,
				Filter: rel.CombineConjuncts(residual),
			}
		}
	}
	r, c := bestNode.Estimates()
	return subPlan{node: bestNode, layout: []int{ti}, rows: r, cost: c}
}

// indexBound is one probe bound: the comparison's other operand, a literal
// or a query parameter, which the plan's IndexScan holds as is. Val (the
// literal's value) and Arg (the parameter's 1-based ordinal, 0 for a
// literal) only price and rank it.
type indexBound struct {
	operand rel.Expr // a *rel.Const or a *rel.Param
	Val     *rel.Value
	Arg     int
	// Strict marks a '<'/'>' bound.
	Strict bool
	// conj is the position, in the table's conjunct list, of the conjunct
	// this bound came from.
	conj int
}

// set reports whether the bound is present (value or parameter).
func (b indexBound) set() bool { return b.Val != nil || b.Arg != 0 }

// priced reports whether the histogram can price b as a range bound: it is
// absent, or a literal that is not TEXT. A parameter's value is unknown at
// plan time, and the statistics keep float bounds only, which read a
// non-numeric text as 0.
func (b indexBound) priced() bool {
	return b.Arg == 0 && (b.Val == nil || b.Val.Type() != rel.TypeText)
}

// answers reports whether probing with b makes conjunct ci redundant: b came
// from it and is inclusive, as the probe is.
func (b indexBound) answers(ci int) bool { return b.set() && !b.Strict && b.conj == ci }

// tighter reports whether b should replace cur as the probe bound on its
// side (upper: the smaller value wins; lower: the larger). A literal beats a
// parameter, because only a literal can be priced from the histogram; among
// literals the tighter value wins; among parameters the first one stays. The
// losing conjunct is kept as a residual filter, so the choice affects cost,
// never the result.
func (b indexBound) tighter(cur indexBound, upper bool) bool {
	switch {
	case !cur.set():
		return true
	case b.Val == nil:
		return false
	case cur.Val == nil:
		return true
	}
	c := rel.Compare(*b.Val, *cur.Val)
	if upper {
		c = -c
	}
	return c > 0
}

// colProbe is everything the conjunct list says about one column that an
// index on it could answer: an equality, or a lower and/or an upper bound.
// Parameter bounds let prepared statements keep their index scans across
// executions (the PostgreSQL generic-plan shape); the executor reads their
// values from the statement's arguments when it compiles the scan.
type colProbe struct {
	col        int
	eq, lo, hi indexBound
	sel        float64 // fraction of the table the probe matches
}

// comparison recognizes "col op const" and "col op param" for the six
// comparison operators, in either operand order, and returns the column, the
// operator normalized to column-on-the-left, and the other operand as a
// bound.
func comparison(e rel.Expr) (col int, kind rel.BinOpKind, bound indexBound, ok bool) {
	b, isBin := e.(*rel.BinOp)
	if !isBin {
		return 0, 0, bound, false
	}
	cr, crOK := b.L.(*rel.ColRef)
	rhs := b.R
	kind = b.Kind
	if !crOK {
		// try reversed: const/param op col
		if cr, crOK = b.R.(*rel.ColRef); !crOK {
			return 0, 0, bound, false
		}
		rhs = b.L
		switch kind {
		case rel.OpLt:
			kind = rel.OpGt
		case rel.OpLe:
			kind = rel.OpGe
		case rel.OpGt:
			kind = rel.OpLt
		case rel.OpGe:
			kind = rel.OpLe
		}
	}
	switch t := rhs.(type) {
	case *rel.Const:
		bound.Val = &t.Val
	case *rel.Param:
		bound.Arg = t.Idx + 1
	default:
		return 0, 0, bound, false
	}
	bound.operand = rhs
	switch kind {
	case rel.OpEq, rel.OpNe, rel.OpLe, rel.OpGe:
	case rel.OpLt, rel.OpGt:
		bound.Strict = true
	default:
		return 0, 0, bound, false
	}
	return cr.Idx, kind, bound, true
}

// side returns the probe slot a comparison of this kind fills.
func (p *colProbe) side(kind rel.BinOpKind) *indexBound {
	switch kind {
	case rel.OpLt, rel.OpLe:
		return &p.hi
	case rel.OpGt, rel.OpGe:
		return &p.lo
	default:
		return &p.eq
	}
}

// mergeProbes groups a table's conjuncts by column into one probe each, in
// order of first appearance, so that "k >= a AND k < b" becomes the closed
// range [a, b] instead of two half-open ones. merged[i] reports that
// conjunct i supplied one of its probe's bounds (and so is priced with the
// probe); conjuncts that lost to a tighter bound on the same side, and
// everything that is not such a comparison, are not.
func mergeProbes(conjs []rel.Expr) (probes []colProbe, merged []bool) {
	merged = make([]bool, len(conjs))
	for ci, c := range conjs {
		col, kind, b, ok := comparison(c)
		if !ok || kind == rel.OpNe {
			continue
		}
		b.conj = ci
		pi := 0
		for pi < len(probes) && probes[pi].col != col {
			pi++
		}
		if pi == len(probes) {
			probes = append(probes, colProbe{col: col})
		}
		p := &probes[pi]
		side := p.side(kind)
		if !b.tighter(*side, side == &p.hi) {
			continue
		}
		if side.set() {
			merged[side.conj] = false
		}
		*side, merged[ci] = b, true
	}
	return probes, merged
}

// selectivity prices the probe. An equality is priced alone (range bounds
// beside it cannot widen it). Literal bounds read the histogram — one
// SelectivityRange call over [lo, hi] for a closed range. A range with a
// bound the histogram cannot price (see priced) falls back to the generic
// constants, and a parameter equality to 1/NDV (a uniform match over the
// column's distinct values, with SelectivityEq's no-statistics fallback).
func (p colProbe) selectivity(ts *stats.TableStats) float64 {
	switch {
	case p.eq.Val != nil:
		return ts.SelectivityEq(p.col, p.eq.Val.AsFloat())
	case p.eq.Arg != 0:
		if d := ts.Col(p.col).Distinct; d > 0 {
			return 1 / float64(d)
		}
		return 0.1
	case !p.lo.priced() || !p.hi.priced():
		if p.lo.set() && p.hi.set() {
			return genericRangeSel
		}
		return genericIneqSel
	}
	loF, hiF := math.Inf(-1), math.Inf(1)
	if p.lo.Val != nil {
		loF = p.lo.Val.AsFloat()
	}
	if p.hi.Val != nil {
		hiF = p.hi.Val.AsFloat()
	}
	return ts.SelectivityRange(p.col, loF, hiF)
}

// selOf estimates the selectivity of one bound single-table conjunct taken
// on its own. A sargable comparison is priced as the one-bound probe it is,
// so a conjunct costs the same whether it ends up in an index probe or in a
// filter.
func selOf(ts *stats.TableStats, e rel.Expr) float64 {
	switch t := e.(type) {
	case *rel.BinOp:
		switch t.Kind {
		case rel.OpAnd:
			return selOf(ts, t.L) * selOf(ts, t.R)
		case rel.OpOr:
			s := selOf(ts, t.L) + selOf(ts, t.R)
			if s > 1 {
				s = 1
			}
			return s
		}
		col, kind, b, ok := comparison(t)
		if !ok {
			return genericIneqSel
		}
		p := colProbe{col: col}
		*p.side(kind) = b
		s := p.selectivity(ts)
		if kind == rel.OpNe {
			return 1 - s
		}
		return s
	case *rel.InList:
		if cr, ok := t.E.(*rel.ColRef); ok {
			s := 0.0
			for _, v := range t.List {
				s += ts.SelectivityEq(cr.Idx, v.AsFloat())
			}
			if s > 1 {
				s = 1
			}
			return s
		}
		return 0.2
	case *rel.IsNullExpr:
		frac := 0.05
		if cr, ok := t.E.(*rel.ColRef); ok {
			if c := ts.Col(cr.Idx); c.Count > 0 {
				frac = float64(c.NullCount) / float64(c.Count)
			}
		}
		if t.Negate {
			return 1 - frac
		}
		return frac
	case *rel.Not:
		return 1 - selOf(ts, t.E)
	default:
		return genericIneqSel
	}
}

// joinDP performs left-deep dynamic-programming join enumeration.
func (o *Optimizer) joinDP(q *Query, base []subPlan) (subPlan, error) {
	n := len(q.Tables)
	full := (1 << n) - 1
	memo := make(map[int]subPlan, 1<<n)
	for i := 0; i < n; i++ {
		memo[1<<i] = base[i]
	}
	// Enumerate subsets by population count.
	for size := 2; size <= n; size++ {
		for s := 1; s <= full; s++ {
			if popcount(s) != size {
				continue
			}
			var best subPlan
			found := false
			for t := 0; t < n; t++ {
				bit := 1 << t
				if s&bit == 0 {
					continue
				}
				left, ok := memo[s^bit]
				if !ok {
					continue
				}
				preds := connectingPreds(q, left.layout, t)
				// Prefer connected joins; allow cross joins only if no
				// connected extension exists for this subset.
				if len(preds) == 0 && hasConnectedOption(q, s) {
					continue
				}
				cands := o.joinMethods(q, left, t, preds)
				for _, c := range cands {
					if !found || c.cost < best.cost {
						best = c
						found = true
					}
				}
			}
			if found {
				memo[s] = best
			}
		}
	}
	result, ok := memo[full]
	if !ok {
		return subPlan{}, fmt.Errorf("optimizer: join enumeration failed (disconnected graph without cross-join fallback)")
	}
	return result, nil
}

// hasConnectedOption reports whether some left-deep extension of subset s
// uses a join predicate.
func hasConnectedOption(q *Query, s int) bool {
	n := len(q.Tables)
	for t := 0; t < n; t++ {
		bit := 1 << t
		if s&bit == 0 {
			continue
		}
		rest := s ^ bit
		for _, jp := range q.Joins {
			if jp.LT == t && rest&(1<<jp.RT) != 0 {
				return true
			}
			if jp.RT == t && rest&(1<<jp.LT) != 0 {
				return true
			}
		}
	}
	return false
}

// connectingPreds finds join predicates between the tables in layout and
// table t, normalized so the left side refers to layout.
func connectingPreds(q *Query, layout []int, t int) []JoinPred {
	inLeft := map[int]bool{}
	for _, ti := range layout {
		inLeft[ti] = true
	}
	var out []JoinPred
	for _, jp := range q.Joins {
		if inLeft[jp.LT] && jp.RT == t {
			out = append(out, jp)
		} else if inLeft[jp.RT] && jp.LT == t {
			out = append(out, JoinPred{LT: jp.RT, LC: jp.RC, RT: jp.LT, RC: jp.LC})
		}
	}
	return out
}

// joinMethods generates hash, index and nested-loop joins of (left ⋈ t).
func (o *Optimizer) joinMethods(q *Query, left subPlan, t int, preds []JoinPred) []subPlan {
	right := o.bestAccessPath(q, t)
	newLayout := append(append([]int(nil), left.layout...), t)
	outSchema := layoutSchema(q, newLayout)
	remap := q.globalToPlan(newLayout)
	leftMap := q.globalToPlan(left.layout)

	// Join cardinality: product divided by max NDV over equi keys.
	tsR := o.Stats(q.Tables[t])
	outRows := left.rows * right.rows
	for _, jp := range preds {
		tsL := o.Stats(q.Tables[jp.LT])
		ndvL := float64(tsL.Col(jp.LC).Distinct)
		ndvR := float64(tsR.Col(jp.RC).Distinct)
		ndv := math.Max(math.Max(ndvL, ndvR), 1)
		outRows /= ndv
	}
	outRows = math.Max(outRows*o.CardScale, 0.5)

	// Build the full ON condition in output coordinates.
	var onConjs []rel.Expr
	for _, jp := range preds {
		l := &rel.ColRef{Idx: remap(q.Offsets[jp.LT] + jp.LC)}
		r := &rel.ColRef{Idx: remap(q.Offsets[jp.RT] + jp.RC)}
		onConjs = append(onConjs, &rel.BinOp{Kind: rel.OpEq, L: l, R: r})
	}
	on := rel.CombineConjuncts(onConjs)

	var out []subPlan

	// Hash join (first equi pred as hash key, rest residual).
	if !o.Hints.NoHashJoin && len(preds) > 0 {
		jp := preds[0]
		var residual rel.Expr
		if len(preds) > 1 {
			residual = rel.CombineConjuncts(onConjs[1:])
		}
		cost := left.cost + right.cost +
			right.rows*hashEntry + left.rows*cpuOpCost + outRows*cpuTupleCost
		out = append(out, subPlan{
			node: &plan.HashJoin{
				Base: plan.Base{Out: outSchema, EstRows: outRows, EstCost: cost},
				L:    left.node, R: right.node,
				LKey:     leftMap(q.Offsets[jp.LT] + jp.LC),
				RKey:     jp.RC,
				Residual: residual,
			},
			layout: newLayout, rows: outRows, cost: cost,
		})
	}

	// Index nested-loop join: probe an index on the inner join column.
	if !o.Hints.NoIndexJoin && len(preds) > 0 {
		for pi, jp := range preds {
			ix := q.Tables[t].IndexOn(jp.RC)
			if ix == nil {
				continue
			}
			var residual rel.Expr
			if len(preds) > 1 {
				rest := make([]rel.Expr, 0, len(onConjs)-1)
				rest = append(rest, onConjs[:pi]...)
				rest = append(rest, onConjs[pi+1:]...)
				residual = rel.CombineConjuncts(rest)
			}
			rowsT := float64(tsR.Rows())
			matchPerProbe := rowsT / math.Max(float64(tsR.Col(jp.RC).Distinct), 1)
			cost := left.cost +
				left.rows*(math.Log2(rowsT+2)*cpuOpCost+matchPerProbe*(randPageCost*0.1+cpuTupleCost)) +
				outRows*cpuTupleCost
			out = append(out, subPlan{
				node: &plan.IndexJoin{
					Base:  plan.Base{Out: outSchema, EstRows: outRows, EstCost: cost},
					L:     left.node,
					Table: q.Tables[t], Index: ix,
					LKey:     leftMap(q.Offsets[jp.LT] + jp.LC),
					Residual: residual,
					Filter:   rel.CombineConjuncts(q.Local[t]),
				},
				layout: newLayout, rows: outRows, cost: cost,
			})
			break
		}
	}

	// Nested-loop join (always available; required for cross joins).
	if !o.Hints.NoNLJoin || len(out) == 0 {
		cost := left.cost + right.cost +
			left.rows*math.Max(right.rows, 1)*cpuOpCost + outRows*cpuTupleCost
		out = append(out, subPlan{
			node: &plan.NLJoin{
				Base: plan.Base{Out: outSchema, EstRows: outRows, EstCost: cost},
				L:    left.node, R: right.node, On: on,
			},
			layout: newLayout, rows: outRows, cost: cost,
		})
	}
	return out
}

// finish applies residual filters, aggregation/projection, ordering, limit.
func (o *Optimizer) finish(q *Query, sp subPlan) (plan.Node, error) {
	node := sp.node
	remap := q.globalToPlan(sp.layout)
	rows := sp.rows
	cost := sp.cost

	if len(q.Residual) > 0 {
		pred := rel.MapCols(rel.CombineConjuncts(q.Residual), remap)
		rows = math.Max(rows*0.33, 0.5)
		cost += rows * cpuOpCost
		node = &plan.Filter{
			Base:  plan.Base{Out: node.Schema(), EstRows: rows, EstCost: cost},
			Child: node,
			Pred:  pred,
		}
	}

	if q.HasAgg {
		agg := &plan.Agg{
			Base:  plan.Base{EstCost: cost + rows*cpuOpCost},
			Child: node,
		}
		outSchema := &rel.Schema{}
		for _, g := range q.GroupBy {
			agg.GroupBy = append(agg.GroupBy, rel.MapCols(g, remap))
		}
		for _, item := range q.Items {
			if item.Agg != nil {
				spec := &plan.AggSpec{Kind: aggKindOf(item.Agg.Kind)}
				if item.Agg.Arg != nil {
					spec.Arg = rel.MapCols(item.Agg.Arg, remap)
				}
				agg.Items = append(agg.Items, plan.AggItem{Agg: spec})
				outSchema.Cols = append(outSchema.Cols, rel.Column{Name: item.Alias, Typ: rel.TypeFloat})
			} else {
				agg.Items = append(agg.Items, plan.AggItem{Key: rel.MapCols(item.E, remap)})
				outSchema.Cols = append(outSchema.Cols, rel.Column{Name: item.Alias})
			}
		}
		groups := math.Max(rows/10, 1)
		if len(agg.GroupBy) == 0 {
			groups = 1
		}
		agg.Out = outSchema
		agg.EstRows = groups
		node = agg
		rows = groups
	} else {
		// Plain projection.
		exprs := make([]rel.Expr, len(q.Items))
		outSchema := &rel.Schema{}
		for i, item := range q.Items {
			exprs[i] = rel.MapCols(item.E, remap)
			outSchema.Cols = append(outSchema.Cols, rel.Column{Name: item.Alias})
		}
		cost += rows * cpuOpCost
		node = &plan.Project{
			Base:  plan.Base{Out: outSchema, EstRows: rows, EstCost: cost},
			Child: node,
			Exprs: exprs,
		}
	}

	if len(q.OrderBy) > 0 {
		if q.HasAgg {
			return nil, fmt.Errorf("optimizer: ORDER BY with aggregates is not supported")
		}
		keys := make([]plan.SortKey, len(q.OrderBy))
		for i, ob := range q.OrderBy {
			keys[i] = plan.SortKey{E: rel.MapCols(ob.E, remap), Desc: ob.Desc}
		}
		// Sort keys reference pre-projection columns; sort below projection
		// would be more standard, but our Project only renames/reorders, so
		// sorting above with remapped keys is incorrect when the projection
		// drops sort columns. Sort therefore goes *below* the projection.
		proj := node.(*plan.Project)
		cost += rows * math.Log2(rows+2) * cpuOpCost
		sortNode := &plan.Sort{
			Base:  plan.Base{Out: proj.Child.Schema(), EstRows: rows, EstCost: cost},
			Child: proj.Child,
			Keys:  keys,
		}
		proj.Child = sortNode
		proj.EstCost = cost
		node = proj
	}

	if q.Limit >= 0 {
		node = &plan.Limit{
			Base:  plan.Base{Out: node.Schema(), EstRows: math.Min(rows, float64(q.Limit)), EstCost: cost},
			Child: node,
			N:     q.Limit,
		}
	}
	return node, nil
}

func aggKindOf(name string) plan.AggKind {
	switch name {
	case "COUNT":
		return plan.AggCount
	case "SUM":
		return plan.AggSum
	case "AVG":
		return plan.AggAvg
	case "MIN":
		return plan.AggMin
	default:
		return plan.AggMax
	}
}

func popcount(x int) int {
	c := 0
	for x != 0 {
		x &= x - 1
		c++
	}
	return c
}

// Candidate is a plan produced under a named strategy.
type Candidate struct {
	Plan plan.Node
	Hint string
}

// EnumerateCandidates produces a diverse candidate plan set: one plan per
// hint set plus cardinality-perturbed variants — the filtering stage of the
// filter-and-refine principle the learned optimizer's analyzer then refines.
//
//neurdb:reserved direction 16
func EnumerateCandidates(q *Query, sv StatsView, cardScales []float64) ([]Candidate, error) {
	if sv == nil {
		sv = LiveStats
	}
	var out []Candidate
	seen := map[string]bool{}
	add := func(p plan.Node, hint string) {
		key := plan.Explain(p)
		if !seen[key] {
			seen[key] = true
			out = append(out, Candidate{Plan: p, Hint: hint})
		}
	}
	for _, h := range StandardHintSets() {
		o := &Optimizer{Stats: sv, Hints: h, CardScale: 1}
		p, err := o.Plan(q)
		if err != nil {
			return nil, err
		}
		add(p, h.Name)
	}
	for _, cs := range cardScales {
		if cs == 1 || cs <= 0 {
			continue
		}
		o := &Optimizer{Stats: sv, CardScale: cs}
		p, err := o.Plan(q)
		if err != nil {
			return nil, err
		}
		add(p, fmt.Sprintf("cardx%g", cs))
	}
	return out, nil
}

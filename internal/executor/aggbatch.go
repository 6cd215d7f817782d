package executor

import (
	"math"
	"sort"

	"neurdb/internal/plan"
	"neurdb/internal/rel"
)

// aggAcc is a grouped-aggregation workspace: one slot table — columnar
// accumulator arrays (one flat slice per accumulator kind, indexed
// slot*nAgg+item) instead of per-group state objects — indexed by two hash
// tables: a single numeric group-by value is keyed by its float64 bits in a
// keyTable (the one the hash join builds on), everything else by the encoded
// group-by values in a Go map. The aggregate argument expressions are
// precompiled so plain column references skip interface dispatch, each item
// updates only the accumulator its kind reads, min/max compare same-type
// numbers inline (less), the group-key buffer is reused across rows, and the
// string table is probed with an allocation-free conversion — steady-state
// accumulation allocates only when a new group appears.
//
// The aggregation operator gives each worker its own partial aggAcc and
// merges them with mergeFrom. Every row carries a sequence number monotone
// in heap order, and each slot remembers the smallest one it saw
// (firstSeen), so finalize can emit groups in global first-seen order no
// matter how the input was split across workers — the one-worker order.
type aggAcc struct {
	node *plan.Agg
	nAgg int

	specs   []aggArgSpec // aggregate items only, precompiled
	keyCols []int        // group-by column fast path (-1 = general expr)
	evalRow bool         // some key or argument is an expression: add needs whole rows
	rowBuf  rel.Row      // add's scratch for a joined row under evalRow
	joined  []rel.Row    // a residual join's matches of one probe row (parallelAgg's scratch)
	slab    []rel.Value  // their values

	slots     map[string]int // encoded group key -> slot
	numSlots  keyTable       // single numeric group key's float64 bits -> slot+1
	keys      []groupKey     // key per slot (merge lookups)
	firsts    []rel.Row      // first row seen per slot (key-expression source)
	firstSeen []uint64       // smallest sequence number seen per slot
	// Columnar accumulators, all indexed slot*nAgg + item.
	cnts []int64 // non-null inputs (COUNT)
	sums []float64
	mins []rel.Value
	maxs []rel.Value

	keyBuf []byte
}

// groupKey is a slot's key in whichever table holds it.
type groupKey struct {
	str   string // encoded group-by values
	num   uint64 // isNum: the single numeric value's float64 bits
	isNum bool
}

// aggArgSpec is one precompiled aggregate item.
type aggArgSpec struct {
	idx  int          // position in node.Items (and in the accumulator stride)
	kind plan.AggKind // which accumulator the item reads
	arg  rel.Expr     // nil for COUNT(*)
	col  int          // column index when arg is a plain ColRef, else -1
}

// colOf returns the column index of a plain column reference, or -1.
func colOf(e rel.Expr) int {
	if c, ok := e.(*rel.ColRef); ok {
		return c.Idx
	}
	return -1
}

func numericType(t rel.Type) bool {
	return t == rel.TypeInt || t == rel.TypeFloat || t == rel.TypeBool
}

// pairCol is column c of the joined row l⋈r without building it; r is nil
// for a plain row.
func pairCol(l, r rel.Row, c int) rel.Value {
	if c < len(l) {
		return l[c]
	}
	return r[c-len(l)]
}

// numKey is the float value = compares a numeric value by, with -0 as 0:
// 1, 1.0 and TRUE have one numKey. ok is false for an INT that float64
// cannot hold exactly: no DOUBLE equals it, so callers key it as the INT it
// is. It takes a pointer so the hot loops pass no Value copy.
func numKey(v *rel.Value) (f float64, ok bool) {
	if v.Type() == rel.TypeFloat {
		f = math.Float64frombits(v.Bits())
	} else { // INT or BOOL: the payload is the int64 value
		i := int64(v.Bits())
		// float64(i) rounds to at most 2^63, which int64 cannot hold.
		if f = float64(i); f >= 0x1p63 || int64(f) != i {
			return 0, false
		}
	}
	if f == 0 {
		return 0, true // -0
	}
	return f, true
}

// fastFloat is Value.AsFloat without the call for the types the
// accumulator loop sees constantly.
func fastFloat(v *rel.Value) float64 {
	switch v.Type() {
	case rel.TypeInt:
		return float64(int64(v.Bits()))
	case rel.TypeFloat:
		return math.Float64frombits(v.Bits())
	default:
		return v.AsFloat()
	}
}

// less is rel.Compare(*x, *y) < 0, with two INTs or two DOUBLEs compared
// inline.
func less(x, y *rel.Value) bool {
	switch t := x.Type(); {
	case t != y.Type():
		return rel.Compare(*x, *y) < 0
	case t == rel.TypeInt:
		return int64(x.Bits()) < int64(y.Bits())
	case t == rel.TypeFloat:
		return math.Float64frombits(x.Bits()) < math.Float64frombits(y.Bits())
	default:
		return rel.Compare(*x, *y) < 0
	}
}

// newAggAcc precompiles the aggregate items and group-by columns of node
// into an empty accumulator.
func newAggAcc(node *plan.Agg) *aggAcc {
	a := &aggAcc{node: node, nAgg: len(node.Items), slots: make(map[string]int), numSlots: newKeyTable(0)}
	for i, item := range node.Items {
		if item.Agg == nil {
			continue
		}
		sp := aggArgSpec{idx: i, kind: item.Agg.Kind, arg: item.Agg.Arg, col: -1}
		if sp.arg != nil {
			sp.col = colOf(sp.arg)
			a.evalRow = a.evalRow || sp.col < 0
		}
		a.specs = append(a.specs, sp)
	}
	for _, g := range node.GroupBy {
		a.keyCols = append(a.keyCols, colOf(g))
		a.evalRow = a.evalRow || colOf(g) < 0
	}
	return a
}

// slot returns the accumulator slot for the group of the row l⋈r (r nil:
// the row l), creating it on first sight. A numeric (INT, FLOAT, BOOL) value
// is keyed by its numKey, because = and the hash join treat numerically
// equal values as equal: a lone one by its float64 bits in numSlots, one of
// several as a FLOAT inside the encoded key. An INT that float64 cannot
// hold, which no DOUBLE equals, keeps its own INT encoding. Encoded keys are
// rel.EncodeValue's self-delimiting encoding, so NULLs form a group and TEXT
// never collides with a number. A new group keeps a copy of its first row:
// callers may reuse the rows' backing arrays (a join's slab does).
func (a *aggAcc) slot(l, r rel.Row, seq uint64) int {
	a.keyBuf = a.keyBuf[:0]
	for k, g := range a.node.GroupBy {
		var v rel.Value
		if col := a.keyCols[k]; col >= 0 {
			v = pairCol(l, r, col)
		} else {
			v = g.Eval(l)
		}
		if numericType(v.Type()) {
			f, ok := numKey(&v)
			switch {
			case !ok: // an INT no DOUBLE equals: its own encoded key
			case len(a.keyCols) == 1:
				bits := math.Float64bits(f)
				if s := a.numSlots.get(bits); s != 0 {
					return int(s - 1)
				}
				return a.addSlot(groupKey{num: bits, isNum: true}, concatRow(l, r), seq)
			default:
				v = rel.Float(f)
			}
		}
		a.keyBuf = rel.EncodeValue(a.keyBuf, v)
	}
	if s, ok := a.slots[string(a.keyBuf)]; ok {
		return s
	}
	return a.addSlot(groupKey{str: string(a.keyBuf)}, concatRow(l, r), seq)
}

// concatRow is a fresh copy of the row l⋈r (r nil: of l).
func concatRow(l, r rel.Row) rel.Row {
	return append(append(make(rel.Row, 0, len(l)+len(r)), l...), r...)
}

// addSlot appends an empty slot for key, whose earliest row so far is first
// at sequence seq.
func (a *aggAcc) addSlot(key groupKey, first rel.Row, seq uint64) int {
	s := len(a.firsts)
	if key.isNum {
		*a.numSlots.ref(key.num) = int32(s + 1)
	} else {
		a.slots[key.str] = s
	}
	a.keys = append(a.keys, key)
	a.firsts = append(a.firsts, first)
	a.firstSeen = append(a.firstSeen, seq)
	a.cnts = append(a.cnts, make([]int64, a.nAgg)...)
	a.sums = append(a.sums, make([]float64, a.nAgg)...)
	a.mins = append(a.mins, make([]rel.Value, a.nAgg)...)
	a.maxs = append(a.maxs, make([]rel.Value, a.nAgg)...)
	return s
}

// add folds the row l⋈r into its group's accumulators: a hash join's probe
// row and build row, read column by column in place, or with r nil the
// plain row l. A joined row is built only when some key or argument is an
// expression. seq must be monotone in the input's heap order (workers
// derive it from the chunk ordinal).
func (a *aggAcc) add(l, r rel.Row, seq uint64) {
	if r != nil && a.evalRow {
		a.rowBuf = append(append(a.rowBuf[:0], l...), r...)
		l, r = a.rowBuf, nil
	}
	base := a.slot(l, r, seq) * a.nAgg
	for s := range a.specs {
		sp := &a.specs[s]
		j := base + sp.idx
		if sp.arg == nil { // COUNT(*)
			a.cnts[j]++
			continue
		}
		var v rel.Value
		if sp.col >= 0 {
			v = pairCol(l, r, sp.col)
		} else {
			v = sp.arg.Eval(l)
		}
		if v.IsNull() {
			continue
		}
		a.cnts[j]++
		switch sp.kind {
		case plan.AggCount: // the count above is all it reads
		case plan.AggSum, plan.AggAvg:
			a.sums[j] += fastFloat(&v)
		case plan.AggMin:
			if a.cnts[j] == 1 || less(&v, &a.mins[j]) {
				a.mins[j] = v
			}
		case plan.AggMax:
			if a.cnts[j] == 1 || less(&a.maxs[j], &v) {
				a.maxs[j] = v
			}
		}
	}
}

// mergeFrom folds another partial accumulator (over a disjoint slice of the
// input) into a. Counts and sums add, extremes compare, and each group keeps
// the first row from whichever partial saw the group earliest in heap order.
func (a *aggAcc) mergeFrom(src *aggAcc) {
	nAgg := a.nAgg
	for s, key := range src.keys {
		var d int
		var ok bool
		if key.isNum {
			d = int(a.numSlots.get(key.num)) - 1
			ok = d >= 0
		} else {
			d, ok = a.slots[key.str]
		}
		switch {
		case !ok: // its accumulators start empty and take src's below
			d = a.addSlot(key, src.firsts[s], src.firstSeen[s])
		case src.firstSeen[s] < a.firstSeen[d]:
			a.firstSeen[d] = src.firstSeen[s]
			a.firsts[d] = src.firsts[s]
		}
		for i := 0; i < nAgg; i++ {
			sj, dj := s*nAgg+i, d*nAgg+i
			if src.cnts[sj] == 0 {
				continue
			}
			if a.cnts[dj] == 0 {
				a.cnts[dj] = src.cnts[sj]
				a.sums[dj] = src.sums[sj]
				a.mins[dj], a.maxs[dj] = src.mins[sj], src.maxs[sj]
				continue
			}
			a.cnts[dj] += src.cnts[sj]
			a.sums[dj] += src.sums[sj]
			if less(&src.mins[sj], &a.mins[dj]) {
				a.mins[dj] = src.mins[sj]
			}
			if less(&a.maxs[dj], &src.maxs[sj]) {
				a.maxs[dj] = src.maxs[sj]
			}
		}
	}
}

// finalize materializes one output row per group in first-seen (heap) order.
// A scalar aggregate (no GROUP BY) over empty input still yields one row.
func (a *aggAcc) finalize() []rel.Row {
	nAgg := a.nAgg
	nGroups := len(a.firsts)
	if nGroups == 0 && len(a.node.GroupBy) == 0 {
		a.firsts = append(a.firsts, nil)
		a.firstSeen = append(a.firstSeen, 0)
		a.cnts = make([]int64, nAgg)
		a.sums = make([]float64, nAgg)
		a.mins = make([]rel.Value, nAgg)
		a.maxs = make([]rel.Value, nAgg)
		nGroups = 1
	}
	order := make([]int, nGroups)
	for i := range order {
		order[i] = i
	}
	// Serial accumulation creates slots in first-seen order already (the
	// sort is the identity); merged partials need the reorder. Sequence
	// numbers are unique per row, so the order is total.
	sort.Slice(order, func(i, j int) bool { return a.firstSeen[order[i]] < a.firstSeen[order[j]] })
	out := make([]rel.Row, 0, nGroups)
	for _, slot := range order {
		base := slot * nAgg
		row := make(rel.Row, nAgg)
		for i, item := range a.node.Items {
			if item.Agg == nil {
				if a.firsts[slot] == nil {
					row[i] = rel.Null()
				} else {
					row[i] = item.Key.Eval(a.firsts[slot])
				}
				continue
			}
			cnt := a.cnts[base+i]
			switch item.Agg.Kind {
			case plan.AggCount:
				row[i] = rel.Int(cnt)
			case plan.AggSum:
				if cnt == 0 {
					row[i] = rel.Null()
				} else {
					row[i] = rel.Float(a.sums[base+i])
				}
			case plan.AggAvg:
				if cnt == 0 {
					row[i] = rel.Null()
				} else {
					row[i] = rel.Float(a.sums[base+i] / float64(cnt))
				}
			case plan.AggMin:
				if cnt == 0 {
					row[i] = rel.Null()
				} else {
					row[i] = a.mins[base+i]
				}
			case plan.AggMax:
				if cnt == 0 {
					row[i] = rel.Null()
				} else {
					row[i] = a.maxs[base+i]
				}
			}
		}
		out = append(out, row)
	}
	return out
}

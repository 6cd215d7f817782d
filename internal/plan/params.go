package plan

import (
	"fmt"

	"neurdb/internal/rel"
)

// HasParams reports whether the plan references any query parameter, either
// in an expression tree or as an index-scan probe bound. Prepared statements
// whose plan has no parameters skip the BindParams copy entirely.
func HasParams(n Node) bool {
	found := false
	Walk(n, func(node Node, _ int) {
		if found {
			return
		}
		switch t := node.(type) {
		case *SeqScan:
			found = rel.HasParams(t.Filter)
		case *IndexScan:
			found = t.EqArg != 0 || t.LoArg != 0 || t.HiArg != 0 || rel.HasParams(t.Filter)
		case *HashJoin:
			found = rel.HasParams(t.Residual)
		case *NLJoin:
			found = rel.HasParams(t.On)
		case *IndexJoin:
			found = rel.HasParams(t.Residual) || rel.HasParams(t.Filter)
		case *Filter:
			found = rel.HasParams(t.Pred)
		case *Project:
			found = anyParam(t.Exprs)
		case *Agg:
			found = anyParam(t.GroupBy)
			for _, it := range t.Items {
				if found {
					break
				}
				if it.Agg != nil {
					found = rel.HasParams(it.Agg.Arg)
				} else {
					found = rel.HasParams(it.Key)
				}
			}
		case *Sort:
			for _, k := range t.Keys {
				if rel.HasParams(k.E) {
					found = true
					break
				}
			}
		case *Limit, *Delete:
			// LIMIT's N is a parsed literal and DELETE's predicate lives in
			// its access node: neither has a parameter slot of its own.
		case *Insert:
			found = len(t.Holes) > 0
		case *Update:
			for _, e := range t.Set {
				found = found || rel.HasParams(e)
			}
		case *Predict:
			found = len(t.Holes) > 0
		}
	})
	return found
}

func anyParam(es []rel.Expr) bool {
	for _, e := range es {
		if rel.HasParams(e) {
			return true
		}
	}
	return false
}

// BindParams returns a copy of the plan with every parameter reference
// replaced by the corresponding argument value: expression Params become
// Consts and parameter-bound index probes become concrete Eq/Lo/Hi values.
// Row-producing subtrees without parameters are shared, not copied, so
// re-executing a cached plan allocates only along parameterized paths (a
// write or PREDICT node, the root of its plan, is simply copied); the cached
// plan itself is never mutated. No default, on purpose: neurdb-lint fails a
// new node kind with no arm here instead of letting it run with unbound
// parameters.
func BindParams(n Node, args []rel.Value) Node {
	switch t := n.(type) {
	case *SeqScan:
		f := rel.SubstParams(t.Filter, args)
		if f == t.Filter {
			return t
		}
		cp := *t
		cp.Filter = f
		return &cp
	case *IndexScan:
		f := rel.SubstParams(t.Filter, args)
		if f == t.Filter && t.EqArg == 0 && t.LoArg == 0 && t.HiArg == 0 {
			return t
		}
		cp := *t
		cp.Filter = f
		resolve := func(arg int) *rel.Value {
			if arg < 1 || arg > len(args) {
				v := rel.Null()
				return &v
			}
			v := args[arg-1]
			return &v
		}
		if t.EqArg != 0 {
			cp.Eq, cp.EqArg = resolve(t.EqArg), 0
		}
		if t.LoArg != 0 {
			cp.Lo, cp.LoArg = resolve(t.LoArg), 0
		}
		if t.HiArg != 0 {
			cp.Hi, cp.HiArg = resolve(t.HiArg), 0
		}
		return &cp
	case *HashJoin:
		l, r := BindParams(t.L, args), BindParams(t.R, args)
		res := rel.SubstParams(t.Residual, args)
		if l == t.L && r == t.R && res == t.Residual {
			return t
		}
		cp := *t
		cp.L, cp.R, cp.Residual = l, r, res
		return &cp
	case *NLJoin:
		l, r := BindParams(t.L, args), BindParams(t.R, args)
		on := rel.SubstParams(t.On, args)
		if l == t.L && r == t.R && on == t.On {
			return t
		}
		cp := *t
		cp.L, cp.R, cp.On = l, r, on
		return &cp
	case *IndexJoin:
		l := BindParams(t.L, args)
		res := rel.SubstParams(t.Residual, args)
		f := rel.SubstParams(t.Filter, args)
		if l == t.L && res == t.Residual && f == t.Filter {
			return t
		}
		cp := *t
		cp.L, cp.Residual, cp.Filter = l, res, f
		return &cp
	case *Filter:
		c := BindParams(t.Child, args)
		p := rel.SubstParams(t.Pred, args)
		if c == t.Child && p == t.Pred {
			return t
		}
		cp := *t
		cp.Child, cp.Pred = c, p
		return &cp
	case *Project:
		c := BindParams(t.Child, args)
		exprs, changed := substAll(t.Exprs, args)
		if c == t.Child && !changed {
			return t
		}
		cp := *t
		cp.Child, cp.Exprs = c, exprs
		return &cp
	case *Agg:
		c := BindParams(t.Child, args)
		groupBy, gChanged := substAll(t.GroupBy, args)
		items := t.Items
		iChanged := false
		for i, it := range t.Items {
			var before, after rel.Expr
			if it.Agg != nil {
				before = it.Agg.Arg
			} else {
				before = it.Key
			}
			after = rel.SubstParams(before, args)
			if after == before {
				continue
			}
			if !iChanged {
				items = append([]AggItem(nil), t.Items...)
				iChanged = true
			}
			if it.Agg != nil {
				spec := *it.Agg
				spec.Arg = after
				items[i].Agg = &spec
			} else {
				items[i].Key = after
			}
		}
		if c == t.Child && !gChanged && !iChanged {
			return t
		}
		cp := *t
		cp.Child, cp.GroupBy, cp.Items = c, groupBy, items
		return &cp
	case *Sort:
		c := BindParams(t.Child, args)
		keys := t.Keys
		changed := false
		for i, k := range t.Keys {
			e := rel.SubstParams(k.E, args)
			if e == k.E {
				continue
			}
			if !changed {
				keys = append([]SortKey(nil), t.Keys...)
				changed = true
			}
			keys[i].E = e
		}
		if c == t.Child && !changed {
			return t
		}
		cp := *t
		cp.Child, cp.Keys = c, keys
		return &cp
	case *Limit:
		c := BindParams(t.Child, args)
		if c == t.Child {
			return t
		}
		cp := *t
		cp.Child = c
		return &cp
	case *Insert:
		cp := *t
		cp.Values = t.Values.bind(args)
		return &cp
	case *Update:
		cp := *t
		cp.Child = BindParams(t.Child, args)
		cp.Set = make(map[int]rel.Expr, len(t.Set))
		for col, e := range t.Set {
			cp.Set[col] = rel.SubstParams(e, args)
		}
		return &cp
	case *Delete:
		cp := *t
		cp.Child = BindParams(t.Child, args)
		return &cp
	case *Predict:
		cp := *t
		cp.Train = BindParams(t.Train, args)
		if t.Infer != nil {
			cp.Infer = BindParams(t.Infer, args)
		}
		cp.Values = t.Values.bind(args)
		return &cp
	}
	panic(fmt.Sprintf("plan: BindParams has no arm for %T", n))
}

// substAll substitutes params across an expression slice, copying the slice
// only when something changed.
func substAll(es []rel.Expr, args []rel.Value) ([]rel.Expr, bool) {
	out := es
	changed := false
	for i, e := range es {
		s := rel.SubstParams(e, args)
		if s == e {
			continue
		}
		if !changed {
			out = append([]rel.Expr(nil), es...)
			changed = true
		}
		out[i] = s
	}
	return out, changed
}

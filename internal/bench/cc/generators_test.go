package cc

import (
	"math/rand"
	"testing"
)

func TestYCSBZipfianSkew(t *testing.T) {
	y := NewYCSB(10_000, 0.9)
	r := rand.New(rand.NewSource(1))
	counts := map[int]int{}
	const draws = 50_000
	for i := 0; i < draws; i++ {
		k := y.Key(r)
		if k < 0 || k >= 10_000 {
			t.Fatalf("key out of range: %d", k)
		}
		counts[k]++
	}
	// Hot head: key 0 should be drawn far more than uniform (5 per key).
	if counts[0] < 100 {
		t.Fatalf("zipf head too cold: %d", counts[0])
	}
	// Uniform variant.
	u := NewYCSB(10_000, 0)
	for i := 0; i < 100; i++ {
		if k := u.Key(r); k < 0 || k >= 10_000 {
			t.Fatalf("uniform key out of range: %d", k)
		}
	}
}

func TestYCSBTxnShape(t *testing.T) {
	y := NewYCSB(1000, 0.9)
	r := rand.New(rand.NewSource(2))
	var txn Txn
	for i := 0; i < 200; i++ {
		y.Generate(r, &txn)
		if len(txn.Ops) != 10 {
			t.Fatalf("ops = %d", len(txn.Ops))
		}
		reads, writes := 0, 0
		seen := map[int]bool{}
		for _, op := range txn.Ops {
			if seen[op.Key] {
				t.Fatal("duplicate key within txn")
			}
			seen[op.Key] = true
			if op.Write {
				writes++
			} else {
				reads++
			}
		}
		if reads != 5 || writes != 5 {
			t.Fatalf("reads=%d writes=%d", reads, writes)
		}
	}
}

func TestTPCCGeneratorShape(t *testing.T) {
	g := NewTPCC(2)
	if g.Warehouses() != 2 {
		t.Fatal("warehouse count wrong")
	}
	r := rand.New(rand.NewSource(3))
	var txn Txn
	sawNO, sawPay := false, false
	for i := 0; i < 300; i++ {
		g.Generate(r, &txn)
		limit := TPCCStoreSize(2)
		for _, op := range txn.Ops {
			if op.Key < 0 || op.Key >= limit {
				t.Fatalf("key %d outside store of %d", op.Key, limit)
			}
		}
		switch txn.Type {
		case TPCCNewOrder:
			sawNO = true
			if len(txn.Ops) != 8 {
				t.Fatalf("neworder ops = %d", len(txn.Ops))
			}
		case TPCCPayment:
			sawPay = true
			if len(txn.Ops) != 3 {
				t.Fatalf("payment ops = %d", len(txn.Ops))
			}
		}
	}
	if !sawNO || !sawPay {
		t.Fatal("both txn types should occur")
	}
	g.SetWarehouses(0) // clamps to 1
	if g.Warehouses() != 1 {
		t.Fatal("clamp failed")
	}
}

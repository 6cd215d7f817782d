package cc

import (
	"math/rand"
	"sync/atomic"
)

// TPCC is a TPC-C-style contention generator for the drift experiment
// (Fig. 7b). The record space mimics TPC-C's hot-spot structure: per
// warehouse, one warehouse row (very hot under Payment), 10 district rows
// (hot under NewOrder's order-id counter), 3000 customer rows and a stock
// segment. The drift axes match the paper's: warehouse count and thread
// count change between phases.
type TPCC struct {
	warehouses atomic.Int32
	// Layout constants per warehouse.
	districts int
	customers int
	stock     int
}

// TPCCRecordsPerWarehouse is the record-space footprint of one warehouse.
const TPCCRecordsPerWarehouse = 1 + 10 + 3000 + 1000

// Transaction type ids.
const (
	TPCCNewOrder = 0
	TPCCPayment  = 1
)

// NewTPCC creates a generator starting with w warehouses.
func NewTPCC(w int) *TPCC {
	t := &TPCC{districts: 10, customers: 3000, stock: 1000}
	t.SetWarehouses(w)
	return t
}

// SetWarehouses switches the active warehouse count (workload drift).
func (t *TPCC) SetWarehouses(w int) {
	if w < 1 {
		w = 1
	}
	t.warehouses.Store(int32(w))
}

// Warehouses returns the active warehouse count.
func (t *TPCC) Warehouses() int { return int(t.warehouses.Load()) }

// TPCCStoreSize returns the record count needed for up to maxWarehouses.
func TPCCStoreSize(maxWarehouses int) int { return maxWarehouses * TPCCRecordsPerWarehouse }

func (t *TPCC) base(w int) int { return w * TPCCRecordsPerWarehouse }

// Generate implements Generator: 50/50 NewOrder / Payment.
func (t *TPCC) Generate(r *rand.Rand, txn *Txn) {
	w := r.Intn(t.Warehouses())
	base := t.base(w)
	txn.Ops = txn.Ops[:0]
	if r.Intn(2) == 0 {
		// NewOrder: read warehouse tax, bump district next-order-id (hot),
		// read customer, update 5 distinct stock rows.
		txn.Type = TPCCNewOrder
		d := r.Intn(t.districts)
		c := r.Intn(t.customers)
		txn.Ops = append(txn.Ops,
			Op{Key: base, Write: false},                  // warehouse
			Op{Key: base + 1 + d, Write: true, Delta: 1}, // district counter
			Op{Key: base + 11 + c, Write: false},         // customer
		)
		seen := map[int]bool{}
		for i := 0; i < 5; i++ {
			var s int
			for {
				s = base + 11 + t.customers + r.Intn(t.stock)
				if !seen[s] {
					seen[s] = true
					break
				}
			}
			txn.Ops = append(txn.Ops, Op{Key: s, Write: true, Delta: -1})
		}
	} else {
		// Payment: bump warehouse YTD (very hot), district YTD, customer
		// balance.
		txn.Type = TPCCPayment
		d := r.Intn(t.districts)
		c := r.Intn(t.customers)
		txn.Ops = append(txn.Ops,
			Op{Key: base, Write: true, Delta: 10},         // warehouse YTD
			Op{Key: base + 1 + d, Write: true, Delta: 10}, // district YTD
			Op{Key: base + 11 + c, Write: true, Delta: -10},
		)
	}
}

// TPCCMaxOps is the maximum operation count per transaction (Polyjuice table
// sizing).
const TPCCMaxOps = 8

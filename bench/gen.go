package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"strings"

	"myriad/internal/schema"
)

// Dataset sizes (ISSUE 11 "Deployment"). The servers only ever see the
// SQL rendered from these rows; the driver keeps the rows themselves to
// check every answer.
const (
	numSites        = 3
	partsPerSite    = 20000
	accountsPerSite = 1000
	initialBalance  = 1000
	numCustomers    = 5000
	numOrders       = 60000
	numRegions      = 8
	numCategories   = 20
	goldPercent     = 5
	insertBatch     = 500 // rows per INSERT statement
)

type part struct {
	id          int
	weightMilli int // weight * 1000, uniform [0, 1_000_000)
	priceCents  int // price * 100, uniform [100, 1_000_000)
	category    int
}

func (p part) name() string    { return fmt.Sprintf("part-%d", p.id) }
func (p part) weight() float64 { return float64(p.weightMilli) / 1000 }
func (p part) price() float64  { return float64(p.priceCents) / 100 }
func (p part) cat() string     { return fmt.Sprintf("cat%02d", p.category) }
func (p part) sqlTuple() string {
	return fmt.Sprintf("(%d, '%s', %.3f, %.2f, '%s')", p.id, p.name(), p.weight(), p.price(), p.cat())
}

type goldOrder struct {
	region      int
	amountCents int
}

// dataset is everything generated from one seed.
type dataset struct {
	seed  int64
	parts []part // index = id
	// byWeight orders part indexes by weight so a range predicate is two
	// binary searches; idPrefix[i] is the id sum of byWeight[:i].
	byWeight []int32
	idPrefix []int64
	// goldOrders are the ORDERS rows whose customer is gold: the only
	// ones join_agg can return, so its reference is a scan of these.
	goldOrders []goldOrder
	// setup[s] is the SQL script site s boots from.
	setup  [numSites][]string
	digest uint64
}

func batchInserts(table string, tuples []string) []string {
	var out []string
	for len(tuples) > 0 {
		n := min(insertBatch, len(tuples))
		out = append(out, "INSERT INTO "+table+" VALUES "+strings.Join(tuples[:n], ", "))
		tuples = tuples[n:]
	}
	return out
}

func generate(seed int64) *dataset {
	rng := rand.New(rand.NewSource(seed))
	d := &dataset{seed: seed, parts: make([]part, numSites*partsPerSite)}
	for s := 0; s < numSites; s++ {
		tuples := make([]string, 0, partsPerSite)
		for i := 0; i < partsPerSite; i++ {
			p := part{
				id:          s*partsPerSite + i,
				weightMilli: rng.Intn(1_000_000),
				priceCents:  100 + rng.Intn(999_900),
				category:    rng.Intn(numCategories),
			}
			d.parts[p.id] = p
			tuples = append(tuples, p.sqlTuple())
		}
		d.setup[s] = append(d.setup[s],
			`CREATE TABLE parts (pid INTEGER PRIMARY KEY, pname TEXT NOT NULL, weight FLOAT, price FLOAT, category TEXT)`)
		d.setup[s] = append(d.setup[s], batchInserts("parts", tuples)...)

		tuples = tuples[:0]
		for i := 0; i < accountsPerSite; i++ {
			tuples = append(tuples, fmt.Sprintf("(%d, 'owner-%d-%d', %d)", i, s, i, initialBalance))
		}
		d.setup[s] = append(d.setup[s], `CREATE TABLE acct (id INTEGER PRIMARY KEY, owner TEXT, bal INTEGER NOT NULL)`)
		d.setup[s] = append(d.setup[s], batchInserts("acct", tuples)...)
	}

	// Exactly goldPercent of the customers are gold and every customer
	// has the same number of orders, whichever the seed: a run's work
	// must not depend on the seed's luck, only on which rows it picks.
	gold := make([]bool, numCustomers)
	for _, c := range rng.Perm(numCustomers)[:numCustomers*goldPercent/100] {
		gold[c] = true
	}
	region := make([]int, numCustomers)
	tuples := make([]string, 0, numCustomers)
	for i := 0; i < numCustomers; i++ {
		tier := "std"
		if gold[i] {
			tier = "gold"
		}
		region[i] = rng.Intn(numRegions)
		tuples = append(tuples, fmt.Sprintf("(%d, 'cust-%d', '%s', 'r%d')", i, i, tier, region[i]))
	}
	d.setup[0] = append(d.setup[0], `CREATE TABLE customers (cid INTEGER PRIMARY KEY, cname TEXT NOT NULL, tier TEXT, region TEXT)`)
	d.setup[0] = append(d.setup[0], batchInserts("customers", tuples)...)

	tuples = make([]string, 0, numOrders)
	for i, slot := range rng.Perm(numOrders) {
		cust, cents := slot%numCustomers, rng.Intn(50_000)
		if gold[cust] {
			d.goldOrders = append(d.goldOrders, goldOrder{region: region[cust], amountCents: cents})
		}
		tuples = append(tuples, fmt.Sprintf("(%d, %d, %.2f, 'item-%d')", i, cust, float64(cents)/100, rng.Intn(1000)))
	}
	d.setup[1] = append(d.setup[1], `CREATE TABLE orders (oid INTEGER PRIMARY KEY, cust INTEGER NOT NULL, amount FLOAT, item TEXT)`)
	d.setup[1] = append(d.setup[1], batchInserts("orders", tuples)...)
	d.setup[1] = append(d.setup[1], `CREATE INDEX orders_cust ON orders (cust)`)

	d.byWeight = make([]int32, len(d.parts))
	for i := range d.byWeight {
		d.byWeight[i] = int32(i)
	}
	sort.Slice(d.byWeight, func(a, b int) bool {
		return d.parts[d.byWeight[a]].weightMilli < d.parts[d.byWeight[b]].weightMilli
	})
	d.idPrefix = make([]int64, len(d.parts)+1)
	for i, idx := range d.byWeight {
		d.idPrefix[i+1] = d.idPrefix[i] + int64(idx)
	}

	h := fnv.New64a()
	for _, script := range d.setup {
		for _, stmt := range script {
			h.Write([]byte(stmt)) //nolint:errcheck // hash.Hash never fails
		}
	}
	d.digest = h.Sum64()
	return d
}

// weightRange reports how many parts have lo <= weight < hi and the sum
// of their ids.
func (d *dataset) weightRange(lo, hi int) (count int, idSum int64) {
	at := func(w int) int {
		return sort.Search(len(d.byWeight), func(i int) bool {
			return d.parts[d.byWeight[i]].weightMilli >= w*1000
		})
	}
	a, b := at(lo), at(hi)
	return b - a, d.idPrefix[b] - d.idPrefix[a]
}

// ---------------------------------------------------------------------
// Operations

type opKind uint8

const (
	opPointRead opKind = iota
	opBulkScan
	opJoinAgg
	opSortSpill
	opTransfer
)

// op is one client operation. a..d are the kind's parameters: the id
// (point_read), the lower weight bound (bulk_scan, sort_spill), the
// amount threshold (join_agg), or debit site/account, credit
// site/account (transfer, amount in e).
type op struct {
	kind          opKind
	a, b, c, d, e int
}

const (
	bulkSpan = 100
	sortSpan = 333
)

func (o op) sql() string {
	switch o.kind {
	case opPointRead:
		return fmt.Sprintf("SELECT id, name, price FROM PARTS WHERE id = %d", o.a)
	case opBulkScan:
		return fmt.Sprintf("SELECT id, name, weight, price, category FROM PARTS WHERE weight >= %d AND weight < %d", o.a, o.a+bulkSpan)
	case opJoinAgg:
		return fmt.Sprintf("SELECT c.region, COUNT(*), SUM(o.amount) FROM CUSTOMERS c JOIN ORDERS o ON c.cid = o.cust "+
			"WHERE c.tier = 'gold' AND o.amount > %d GROUP BY c.region ORDER BY c.region", o.a)
	case opSortSpill:
		return fmt.Sprintf("SELECT id, name, price FROM PARTS WHERE weight >= %d AND weight < %d ORDER BY price", o.a, o.a+sortSpan)
	}
	panic("bench: transfer has two statements, see debitSQL/creditSQL")
}

func siteName(s int) string { return fmt.Sprintf("s%d", s) }

func (o op) debitSQL() string {
	return fmt.Sprintf("UPDATE ACCT SET bal = bal - %d WHERE id = %d", o.e, o.b)
}

func (o op) creditSQL() string {
	return fmt.Sprintf("UPDATE ACCT SET bal = bal + %d WHERE id = %d", o.e, o.d)
}

// workload names one traffic mix; stream starts one client's op sequence
// and returns the function that draws its next op.
type workload struct {
	name   string
	stream func(rng *rand.Rand) func() op
	// tracedOps is the fixed op count of the traced run.
	tracedOps int
}

// each makes a stream of independent draws of gen.
func each(gen func(*rand.Rand) op) func(*rand.Rand) func() op {
	return func(rng *rand.Rand) func() op { return func() op { return gen(rng) } }
}

// mixedStream deals from shuffled decks of one transfer and nine point
// reads: exactly 10% transfers in every ten ops of a client, at random
// positions, so two runs do not differ by how many writes they drew.
func mixedStream(rng *rand.Rand) func() op {
	var deck []int
	return func() op {
		if len(deck) == 0 {
			deck = rng.Perm(10)
		}
		card := deck[0]
		deck = deck[1:]
		if card == 0 {
			return genTransfer(rng)
		}
		return genPointRead(rng)
	}
}

func genPointRead(rng *rand.Rand) op {
	return op{kind: opPointRead, a: rng.Intn(numSites * partsPerSite)}
}

func genTransfer(rng *rand.Rand) op {
	from := rng.Intn(numSites)
	to := (from + 1 + rng.Intn(numSites-1)) % numSites
	return op{kind: opTransfer, a: from, b: rng.Intn(accountsPerSite), c: to, d: rng.Intn(accountsPerSite), e: 1 + rng.Intn(10)}
}

var workloads = []workload{
	{name: "point_read", tracedOps: 200, stream: each(genPointRead)},
	{name: "bulk_scan", tracedOps: 100, stream: each(func(rng *rand.Rand) op {
		return op{kind: opBulkScan, a: rng.Intn(1000 - bulkSpan + 1)}
	})},
	{name: "join_agg", tracedOps: 100, stream: each(func(rng *rand.Rand) op {
		return op{kind: opJoinAgg, a: 300 + rng.Intn(150)}
	})},
	{name: "sort_spill", tracedOps: 30, stream: each(func(rng *rand.Rand) op {
		return op{kind: opSortSpill, a: rng.Intn(1000 - sortSpan + 1)}
	})},
	{name: "transfer", tracedOps: 200, stream: each(genTransfer)},
	{name: "mixed_rw", tracedOps: 200, stream: mixedStream},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// opRNG gives each (seed, workload, stream) its own reproducible op
// sequence; stream separates the clients, the warm-up and the traced run.
func opRNG(seed int64, wl string, stream int) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", seed, wl, stream)
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// ---------------------------------------------------------------------
// Answer checking

// checkRead verifies a read op's rows against the generator's data.
func (d *dataset) checkRead(o op, rows []schema.Row) error {
	switch o.kind {
	case opPointRead:
		p := d.parts[o.a]
		if len(rows) != 1 || len(rows[0]) != 3 {
			return fmt.Errorf("point_read id %d: got %d rows", o.a, len(rows))
		}
		r := rows[0]
		id, _ := r[0].Int()
		price, _ := r[2].Float()
		if id != int64(p.id) || r[1].Text() != p.name() || price != p.price() {
			return fmt.Errorf("point_read id %d: got %v, want (%d, %s, %v)", o.a, r, p.id, p.name(), p.price())
		}
	case opBulkScan:
		count, idSum := d.weightRange(o.a, o.a+bulkSpan)
		var got int64
		for _, r := range rows {
			id, _ := r[0].Int()
			got += id
		}
		if len(rows) != count || got != idSum {
			return fmt.Errorf("bulk_scan weight [%d,%d): got %d rows id-sum %d, want %d rows id-sum %d",
				o.a, o.a+bulkSpan, len(rows), got, count, idSum)
		}
	case opSortSpill:
		count, _ := d.weightRange(o.a, o.a+sortSpan)
		if len(rows) != count {
			return fmt.Errorf("sort_spill weight [%d,%d): got %d rows, want %d", o.a, o.a+sortSpan, len(rows), count)
		}
		prev := math.Inf(-1)
		for i, r := range rows {
			price, ok := r[2].Float()
			if !ok || price < prev {
				return fmt.Errorf("sort_spill weight [%d,%d): row %d price %v after %v", o.a, o.a+sortSpan, i, r[2], prev)
			}
			prev = price
		}
	case opJoinAgg:
		var counts [numRegions]int64
		var cents [numRegions]int64
		for _, g := range d.goldOrders {
			if g.amountCents > o.a*100 {
				counts[g.region]++
				cents[g.region] += int64(g.amountCents)
			}
		}
		i := 0
		for reg := 0; reg < numRegions; reg++ {
			if counts[reg] == 0 {
				continue
			}
			if i >= len(rows) {
				return fmt.Errorf("join_agg amount > %d: missing region r%d", o.a, reg)
			}
			r := rows[i]
			i++
			n, _ := r[1].Int()
			sum, _ := r[2].Float()
			want := float64(cents[reg]) / 100
			if n != counts[reg] || r[0].Text() != fmt.Sprintf("r%d", reg) || math.Abs(sum-want) > 1e-6*want {
				return fmt.Errorf("join_agg amount > %d: got %v, want (r%d, %d, %.2f)", o.a, r, reg, counts[reg], want)
			}
		}
		if i != len(rows) {
			return fmt.Errorf("join_agg amount > %d: %d extra rows", o.a, len(rows)-i)
		}
	}
	return nil
}

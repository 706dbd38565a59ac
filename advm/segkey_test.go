package advm

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/fused"
	"repro/internal/vector"
)

// keyTable is a schema-only table source: the segment key and the fused
// compiler read only a scan's schema and row count.
type keyTable struct {
	vector.Store
	sch  Schema
	rows int
}

func (t keyTable) Schema() Schema { return t.sch }
func (t keyTable) Rows() int      { return t.rows }

// TestSegmentKeyInjective: the fused code cache's key must change with
// every plan difference the compiler can see, reproduce byte for byte for
// equal plans, and — on one engine whose cache every plan shares — hand
// each hot plan a program that gives the interpreted result.
func TestSegmentKeyInjective(t *testing.T) {
	probeTable := func(x string, xKind Kind, rows int) *Table {
		tb := NewTable(NewSchema("k", I64, x, xKind))
		for i := 0; i < rows; i++ {
			xv := F64Value(float64(i) / 2)
			if xKind == I64 {
				xv = I64Value(int64(i))
			}
			tb.AppendRow(I64Value(int64(i%40)), xv)
		}
		return tb
	}
	buildTable := func(payKind Kind) *Table {
		tb := NewTable(NewSchema("bk", I64, "pay", payKind))
		for i := 0; i < 32; i++ {
			pay := I64Value(int64(i * 10))
			if payKind == F64 {
				pay = F64Value(float64(i * 10))
			}
			tb.AppendRow(I64Value(int64(i)), pay)
		}
		return tb
	}
	type variant struct {
		probe       *Table
		filterMode  EvalMode
		filter, col string
		out         string
		outKind     Kind
		build       *Plan
		payload     []string
		extraJoin   bool // a second probe below, so the top probe reads table 1
		noJoin      bool
	}
	mk := func(mut func(*variant)) *Plan {
		v := variant{
			probe: probeTable("x", F64, 64), filter: `(\k -> k < 10)`, col: "k",
			out: "y", outKind: I64, build: Scan(buildTable(I64)), payload: []string{"pay"},
		}
		if mut != nil {
			mut(&v)
		}
		p := Scan(v.probe)
		if v.extraJoin {
			p = p.Join(Scan(buildTable(I64)), "k", "bk")
		}
		p = p.FilterMode(v.filterMode, v.filter, v.col).Compute(v.out, `(\k -> k * 2)`, v.outKind, "k")
		if v.noJoin {
			return p
		}
		return p.Join(v.build, "k", "bk", v.payload...)
	}
	plans := []struct {
		name string
		plan *Plan
	}{
		{"base", mk(nil)},
		{"scan-kind", mk(func(v *variant) { v.probe = probeTable("x", I64, 64) })},
		{"scan-name", mk(func(v *variant) { v.probe = probeTable("x2", F64, 64) })},
		{"scan-rows", mk(func(v *variant) { v.probe = probeTable("x", F64, 65) })},
		{"lambda", mk(func(v *variant) { v.filter = `(\k -> k < 11)` })},
		{"filter-col", mk(func(v *variant) { v.filter, v.col = `(\x -> x < 10.0)`, "x" })},
		{"filter-mode", mk(func(v *variant) { v.filterMode = EvalFull })},
		{"out-kind", mk(func(v *variant) { v.outKind = F64 })},
		{"out-name", mk(func(v *variant) { v.out = "z" })},
		{"probe-payload", mk(func(v *variant) { v.payload = nil })},
		{"probe-table", mk(func(v *variant) { v.extraJoin = true })},
		{"probe-build-kind", mk(func(v *variant) { v.build = Scan(buildTable(F64)) })},
		{"probe-build-side", mk(func(v *variant) { v.build = Scan(buildTable(I64)).Filter(`(\b -> b < 20)`, "bk") })},
		{"fewer-stages", mk(func(v *variant) { v.noJoin = true })},
	}
	keys := map[string]string{}
	for _, p := range plans {
		k := p.plan.segmentKey()
		if prev, dup := keys[k]; dup {
			t.Fatalf("segment key collision between %s and %s: %q", prev, p.name, k)
		}
		keys[k] = p.name
	}
	if got, want := mk(nil).segmentKey(), plans[0].plan.segmentKey(); got != want {
		t.Fatalf("equal plans over equal tables must share a key:\n%q\n%q", got, want)
	}

	// Cache round trip: every plan runs hot on one engine, twice, so each
	// second run is served from the shared cache. A key that let two
	// segments share an entry would hand one of them a loop compiled for the
	// other.
	eng, err := NewEngine(WithTierThresholds(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	hot, err := eng.Session()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewSession(WithTieredExecution(false))
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	collect := func(s *Session, p *Plan) string {
		rows, err := s.Query(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		defer rows.Close()
		var out []string
		for rows.Next() {
			vals := make([]Value, len(rows.Columns()))
			dests := make([]any, len(vals))
			for i := range vals {
				dests[i] = &vals[i]
			}
			if err := rows.Scan(dests...); err != nil {
				t.Fatal(err)
			}
			out = append(out, fmt.Sprint(vals))
		}
		if err := rows.Err(); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(rows.Columns(), out)
	}
	for round := 0; round < 2; round++ {
		for _, p := range plans {
			if got, want := collect(hot, p.plan), collect(ref, p.plan); got != want {
				t.Fatalf("round %d, %s: hot result differs from interpreted:\n%s\n%s", round, p.name, got, want)
			}
		}
	}
	if es := eng.Stats(); es.FusedCompiles == 0 || es.FusedCacheHits == 0 {
		t.Fatalf("FusedCompiles = %d, FusedCacheHits = %d: the plans never used the cache", es.FusedCompiles, es.FusedCacheHits)
	}
}

// keySeen maps segment key → canonical dump of the fuzz inputs that
// produced it, so the fuzzer detects two different segments colliding on
// one key. sync.Map because go test may fuzz in parallel workers.
var keySeen sync.Map

// FuzzSegmentKey drives segmentKey with adversarial column names, lambdas
// and kinds. Properties: (1) determinism — equal plans give equal keys;
// (2) injectivity — different segments never share one; (3) cache round
// trip — what the fused compiler makes of a segment is stored under its key
// and returned for exactly that key.
func FuzzSegmentKey(f *testing.F) {
	f.Add("k", "x", `(\k -> k < 10)`, "y", uint8(5), uint8(6), 1)
	f.Add(`a"b`, "a\x00b", `(\v -> (v % 3) == 1)`, "out", uint8(6), uint8(5), 0)
	f.Add("c,", ";F", `(\k -> k * 2)`, `"`, uint8(1), uint8(7), 2)
	f.Fuzz(func(t *testing.T, col1, col2, lambda, out string, k1, k2 uint8, kind int) {
		if col1 == col2 {
			t.Skip("a schema names each column once")
		}
		k1, k2 = k1%8, k2%8
		scanT := keyTable{sch: NewSchema(col1, Kind(k1), col2, Kind(k2))}
		buildT := keyTable{sch: NewSchema(col2, Kind(k1), out, Kind(k2))}
		var canon string
		var shared []*engine.SharedJoinTable
		mk := func() *Plan {
			scan := Scan(scanT, col1, col2)
			switch kind % 3 {
			case 0:
				canon = fmt.Sprintf("F|%q|%q|%d|%d|%q", col1, col2, k1, k2, lambda)
				return scan.Filter(lambda, col1)
			case 1:
				canon = fmt.Sprintf("C|%q|%q|%d|%d|%q|%q", col1, col2, k1, k2, lambda, out)
				return scan.Compute(out, lambda, Kind(k2), col1, col2)
			}
			if out == col2 {
				t.Skip("a schema names each column once")
			}
			canon = fmt.Sprintf("J|%q|%q|%d|%d|%q", col1, col2, k1, k2, out)
			shared = []*engine.SharedJoinTable{engine.NewSharedJoinTable(
				[]engine.ColInfo{{Name: col2, Kind: Kind(k1)}, {Name: out, Kind: Kind(k2)}}, nil)}
			return scan.Join(Scan(buildT), col1, col2, out)
		}
		top := mk()
		key := top.segmentKey()
		if again := mk().segmentKey(); again != key {
			t.Fatalf("segment key not deterministic: %q vs %q", key, again)
		}
		if prev, loaded := keySeen.LoadOrStore(key, canon); loaded && prev.(string) != canon {
			t.Fatalf("segment key collision:\n%s\n%s\n→ %q", prev, canon, key)
		}

		stages, scan, ok := top.segment()
		if !ok {
			t.Fatal("a filter, compute or probe over a scan is a segment")
		}
		c := fused.NewCache(8)
		prog := (&builder{}).compileSegment(stages, scan, shared)
		c.Store(key, prog)
		if got, present := c.Lookup(key); !present || got != prog {
			t.Fatalf("cache round-trip failed for %q", key)
		}
	})
}

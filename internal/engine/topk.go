package engine

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"repro/internal/vector"
)

// OrderSpec names one sort column of a TopK operator.
type OrderSpec struct {
	Col  string
	Desc bool
}

// TopK is a pipeline breaker that materializes its child and emits, as one
// chunk, the first k rows under the order columns, ties broken by input
// order — exactly the first k rows of a stable sort. The order is total (see
// compareF64 for NaN), so the result is deterministic even when the order
// columns contain ties or NaN — which is what keeps a top-k over a parallel
// aggregation, and ParallelTopK, byte-identical to serial.
type TopK struct {
	child Operator
	k     int
	by    []OrderSpec

	schema  []ColInfo
	out     *vector.Chunk
	emitted bool
}

// NewTopK creates a top-k operator. The order columns are validated against
// the child's schema (at construction when the child resolves its schema
// eagerly, otherwise at Open).
func NewTopK(child Operator, k int, by ...OrderSpec) (*TopK, error) {
	if k <= 0 {
		return nil, fmt.Errorf("engine: top-k needs k ≥ 1, got %d", k)
	}
	if len(by) == 0 {
		return nil, fmt.Errorf("engine: top-k needs at least one order column")
	}
	t := &TopK{child: child, k: k, by: by, schema: child.Schema()}
	if t.schema != nil {
		if err := t.validate(); err != nil {
			return nil, err
		}
	}
	return t, nil
}

func (t *TopK) validate() error {
	for _, o := range t.by {
		found := false
		for _, ci := range t.schema {
			if ci.Name == o.Col {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("engine: top-k order column %q not produced by child", o.Col)
		}
	}
	return nil
}

// Schema implements Operator.
func (t *TopK) Schema() []ColInfo { return t.schema }

// Open implements Operator.
func (t *TopK) Open(ctx context.Context) error {
	if err := t.child.Open(ctx); err != nil {
		return err
	}
	t.schema = t.child.Schema()
	t.emitted = false
	t.out = nil
	return t.validate()
}

// Next implements Operator: the first call drains the child, sorts and
// truncates; the single result chunk is emitted once.
func (t *TopK) Next(ctx context.Context) (*vector.Chunk, error) {
	if t.emitted {
		return nil, nil
	}
	in, err := t.drain(ctx)
	if err != nil {
		return nil, err
	}
	t.emitted = true
	t.out = topKSelect(in, t.schema, t.k, t.by)
	return t.out, nil
}

// drain returns the child's whole output as one chunk. A child that emits a
// single chunk — an aggregation emits its result as one — is selected in
// place, so its rows are not copied; the chunks of any other child are
// collected into one store first. Holding the first chunk across the next
// Next is safe because the child of a serial TopK emits owned chunks.
func (t *TopK) drain(ctx context.Context) (*vector.Chunk, error) {
	sch := storeSchema(t.schema)
	var only *vector.Chunk
	var rows *vector.DSMStore
	for {
		c, err := t.child.Next(ctx)
		if err != nil {
			return nil, err
		}
		if c == nil {
			break
		}
		if only == nil && rows == nil {
			only = c
			continue
		}
		if rows == nil {
			rows = vector.NewDSMStore(sch)
			rows.AppendChunk(projectTo(only, sch.Names))
			only = nil
		}
		rows.AppendChunk(projectTo(c, sch.Names))
	}
	if only != nil {
		return only, nil
	}
	if rows == nil {
		rows = vector.NewDSMStore(sch)
	}
	return storeChunk(rows), nil
}

// storeChunk returns a chunk over the columns of st, without copying.
func storeChunk(st *vector.DSMStore) *vector.Chunk {
	cols := make([]*vector.Vector, len(st.Schema().Names))
	for i := range cols {
		cols[i] = st.Col(i)
	}
	return vector.ChunkFrom(st.Schema().Names, cols)
}

// topKSelect returns the first k of c's selected rows (all of them when
// fewer) under the order columns, ties broken by input order, as one
// condensed chunk in schema column order. A k-row max-heap under that total
// order keeps the k smallest rows seen so far, so a later row only enters
// by ordering strictly before the heap's worst row. Shared by the serial
// TopK and the morsel-parallel ParallelTopK — one comparator and one
// materialization path is what makes the parallel fold byte-identical to
// the serial one.
func topKSelect(c *vector.Chunk, schema []ColInfo, k int, by []OrderSpec) *vector.Chunk {
	sel := c.Sel()
	n := c.SelectedLen()
	cols := make([]func(a, b int) int, len(by))
	for i, o := range by {
		asc := compareRows(c.MustColumn(o.Col))
		cols[i] = asc
		if o.Desc {
			cols[i] = func(a, b int) int { return asc(b, a) }
		}
	}
	// The heap holds positions among the selected rows; a position's row is
	// rowAt(sel, position), and positions are input order.
	order := func(a, b int32) int {
		ra, rb := rowAt(sel, int(a)), rowAt(sel, int(b))
		for _, c := range cols {
			if r := c(ra, rb); r != 0 {
				return r
			}
		}
		return cmp.Compare(a, b)
	}
	less := func(a, b int32) bool { return order(a, b) < 0 }
	heap := make(vector.Sel, 0, min(k, n))
	for r := int32(0); int(r) < n; r++ {
		if len(heap) < cap(heap) {
			heap = append(heap, r)
			for i := len(heap) - 1; i > 0 && less(heap[(i-1)/2], heap[i]); i = (i - 1) / 2 {
				heap[i], heap[(i-1)/2] = heap[(i-1)/2], heap[i]
			}
			continue
		}
		if !less(r, heap[0]) {
			continue
		}
		heap[0] = r
		for i := 0; ; {
			worst := i
			for _, c := range [2]int{2*i + 1, 2*i + 2} {
				if c < len(heap) && less(heap[worst], heap[c]) {
					worst = c
				}
			}
			if worst == i {
				break
			}
			heap[i], heap[worst] = heap[worst], heap[i]
			i = worst
		}
	}
	slices.SortFunc(heap, order)
	for i, p := range heap {
		heap[i] = int32(rowAt(sel, int(p)))
	}
	out := vector.NewChunk()
	for _, ci := range schema {
		out.Add(ci.Name, vector.Condense(c.MustColumn(ci.Name), heap))
	}
	return out
}

// compareRows returns the ascending order of v's rows. Every kind orders
// naturally (false before true, strings bytewise) except f64, which follows
// compareF64.
func compareRows(v *vector.Vector) func(a, b int) int {
	switch v.Kind() {
	case vector.F64:
		d := v.F64()
		return func(a, b int) int { return compareF64(d[a], d[b]) }
	case vector.Str:
		if v.Coded() {
			codes, dict := v.Codes(), v.Dict()
			return func(a, b int) int { return cmp.Compare(dict[codes[a]], dict[codes[b]]) }
		}
		return compareOrdered(v.Str())
	case vector.Bool:
		d := v.Bool()
		return func(a, b int) int {
			switch {
			case d[a] == d[b]:
				return 0
			case d[b]:
				return -1
			}
			return 1
		}
	case vector.I8:
		return compareOrdered(v.I8())
	case vector.I16:
		return compareOrdered(v.I16())
	case vector.I32:
		return compareOrdered(v.I32())
	}
	return compareOrdered(v.I64())
}

func compareOrdered[T int8 | int16 | int32 | int64 | string](d []T) func(a, b int) int {
	return func(a, b int) int { return cmp.Compare(d[a], d[b]) }
}

// compareF64 is the total order top-k sorts f64 columns by: numbers in
// numeric order (-0 equal to +0), then NaN after every number, +Inf
// included, with NaN equal to NaN. Plain < is not a strict weak order once
// NaN appears — NaN is neither less nor greater than 1 or 2, yet 1 < 2 — so
// any selection under it depends on the algorithm, and serial and parallel
// top-k would disagree.
func compareF64(x, y float64) int {
	switch {
	case x < y:
		return -1
	case x > y:
		return 1
	case x == y:
		return 0
	case x == x: // y is NaN
		return -1
	case y == y: // x is NaN
		return 1
	}
	return 0
}

// Close implements Operator.
func (t *TopK) Close() error { return t.child.Close() }

package vector

import (
	"testing"
	"testing/quick"
)

func testSchema() Schema {
	return NewSchema("id", I64, "qty", I32, "price", F64, "flag", Str, "ok", Bool)
}

func fillStore(t *testing.T, appendRow func(...Value), n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		appendRow(
			I64Value(int64(i)),
			IntValue(I32, int64(i%50)),
			F64Value(float64(i)*1.5),
			StrValue(string(rune('A'+i%3))),
			BoolValue(i%2 == 0),
		)
	}
}

func scanAll(st Store, cols []int) []*Vector {
	sch := st.Schema()
	dst := make([]*Vector, len(cols))
	for i, c := range cols {
		dst[i] = NewLen(sch.Kinds[c], st.Rows())
	}
	st.Scan(0, st.Rows(), cols, dst)
	return dst
}

func TestDSMvsNSMEquivalence(t *testing.T) {
	dsm := NewDSMStore(testSchema())
	nsm := NewNSMStore(testSchema())
	fillStore(t, dsm.AppendRow, 137)
	fillStore(t, nsm.AppendRow, 137)
	if dsm.Rows() != 137 || nsm.Rows() != 137 {
		t.Fatalf("rows: dsm=%d nsm=%d", dsm.Rows(), nsm.Rows())
	}
	cols := []int{0, 1, 2, 3, 4}
	d := scanAll(dsm, cols)
	n := scanAll(nsm, cols)
	for i := range cols {
		if !d[i].Equal(n[i]) {
			t.Errorf("column %d differs between DSM and NSM:\n%v\n%v", i, d[i], n[i])
		}
	}
}

func TestScanPartial(t *testing.T) {
	dsm := NewDSMStore(testSchema())
	fillStore(t, dsm.AppendRow, 20)
	dst := []*Vector{NewLen(I64, 8)}
	got := dsm.Scan(15, 8, []int{0}, dst)
	if got != 5 {
		t.Fatalf("Scan past end should clamp: got %d", got)
	}
	if dst[0].Len() != 5 || dst[0].I64()[4] != 19 {
		t.Errorf("tail scan wrong: %v", dst[0])
	}
	if dsm.Scan(100, 4, []int{0}, dst) != 0 {
		t.Error("scan past end returns 0")
	}
}

// TestDSMViewMatchesScan: a view presents exactly the rows a copying scan
// produces, clamped at the table end, and shares the table's storage.
func TestDSMViewMatchesScan(t *testing.T) {
	dsm := NewDSMStore(testSchema())
	fillStore(t, dsm.AppendRow, 40)
	cols := []int{0, 1, 2, 3, 4}
	for _, w := range [][2]int{{0, 40}, {7, 9}, {35, 16}, {39, 1}} {
		lo, n := w[0], w[1]
		scanned := make([]*Vector, len(cols))
		views := make([]Vector, len(cols))
		viewed := make([]*Vector, len(cols))
		for i, c := range cols {
			scanned[i] = NewLen(testSchema().Kinds[c], 0)
			viewed[i] = &views[i]
		}
		if s, v := dsm.Scan(lo, n, cols, scanned), dsm.View(lo, n, cols, viewed); s != v {
			t.Fatalf("[%d,+%d): Scan produced %d rows, View %d", lo, n, s, v)
		}
		for i := range cols {
			if !viewed[i].Equal(scanned[i]) {
				t.Errorf("[%d,+%d) column %d: view %v, scan %v", lo, n, i, viewed[i], scanned[i])
			}
		}
		if &viewed[0].I64()[0] != &dsm.Col(0).I64()[lo] {
			t.Errorf("[%d,+%d): view does not alias the table", lo, n)
		}
	}
	if dsm.View(40, 4, []int{0}, []*Vector{new(Vector)}) != 0 {
		t.Error("view past end returns 0")
	}
}

// TestSliceGrowthNeverWritesParent: appending to a slice, or growing it
// with SetLen, must reallocate rather than write into the parent's storage
// past the slice's end, for every kind.
func TestSliceGrowthNeverWritesParent(t *testing.T) {
	dsm := NewDSMStore(testSchema())
	fillStore(t, dsm.AppendRow, 16)
	for ci, k := range testSchema().Kinds {
		parent := dsm.Col(ci)
		want := parent.Clone()
		grown := parent.Slice(2, 6)
		grown.SetLen(12)
		for i := 4; i < 12; i++ {
			grown.Set(i, parent.Get(15))
		}
		appended := parent.Slice(0, 3)
		appended.AppendValue(parent.Get(15))
		appended.AppendVector(want)
		if !parent.Equal(want) {
			t.Errorf("%v: growing a view wrote into its parent:\n got %v\nwant %v", k, parent, want)
		}
		if appended.Len() != 4+want.Len() || !appended.Get(2).Equal(want.Get(2)) {
			t.Errorf("%v: appended view lost its prefix: %v", k, appended)
		}
	}
}

func TestNSMScanSubsetOfColumns(t *testing.T) {
	nsm := NewNSMStore(testSchema())
	fillStore(t, nsm.AppendRow, 10)
	dst := []*Vector{NewLen(F64, 10), NewLen(Str, 10)}
	nsm.Scan(0, 10, []int{2, 3}, dst)
	if dst[0].F64()[2] != 3.0 {
		t.Errorf("price[2] = %v", dst[0].F64()[2])
	}
	if dst[1].Str()[4] != "B" {
		t.Errorf("flag[4] = %q", dst[1].Str()[4])
	}
}

func TestAppendChunk(t *testing.T) {
	sch := NewSchema("a", I64, "b", F64)
	c := ChunkOf("a", FromI64([]int64{1, 2, 3}), "b", FromF64([]float64{10, 20, 30}))
	c.SetSel(Sel{0, 2})

	dsm := NewDSMStore(sch)
	dsm.AppendChunk(c)
	if dsm.Rows() != 2 {
		t.Fatalf("selected append should keep 2 rows, got %d", dsm.Rows())
	}
	if dsm.Col(0).I64()[1] != 3 {
		t.Error("selection not honoured in DSM append")
	}

	// A presized store takes selected rows without reallocating, after
	// rows appended whole.
	pre := NewDSMStoreCap(sch, 5)
	pre.AppendChunk(ChunkOf("a", FromI64([]int64{7, 8, 9}), "b", FromF64([]float64{70, 80, 90})))
	a := pre.Col(0).I64()
	pre.AppendChunk(c)
	if pre.Rows() != 5 || &pre.Col(0).I64()[0] != &a[0] {
		t.Fatalf("presized store: %d rows, reallocated %v", pre.Rows(), &pre.Col(0).I64()[0] != &a[0])
	}
	if got := pre.Col(0).I64(); got[3] != 1 || got[4] != 3 || pre.Col(1).F64()[4] != 30 {
		t.Errorf("presized store rows = %v %v", got, pre.Col(1).F64())
	}

	nsm := NewNSMStore(sch)
	nsm.AppendChunk(c)
	dst := []*Vector{NewLen(I64, 2), NewLen(F64, 2)}
	nsm.Scan(0, 2, []int{0, 1}, dst)
	if dst[0].I64()[1] != 3 || dst[1].F64()[1] != 30 {
		t.Error("selection not honoured in NSM append")
	}
}

func TestSchemaColumnIndex(t *testing.T) {
	s := testSchema()
	if s.ColumnIndex("price") != 2 {
		t.Error("ColumnIndex(price)")
	}
	if s.ColumnIndex("nope") != -1 {
		t.Error("ColumnIndex missing should be -1")
	}
}

func TestChunkBasics(t *testing.T) {
	c := ChunkOf("x", FromI64([]int64{5, 6}))
	if c.Len() != 2 || c.Width() != 1 || c.Name(0) != "x" {
		t.Error("chunk basics broken")
	}
	if c.Column("x") == nil || c.Column("y") != nil {
		t.Error("Column lookup broken")
	}
	c.SetSel(Sel{1})
	if c.SelectedLen() != 1 {
		t.Error("SelectedLen")
	}
	cc := c.Condense()
	if cc.Len() != 1 || cc.MustColumn("x").I64()[0] != 6 {
		t.Error("chunk condense broken")
	}
	cl := c.Clone()
	cl.Col(0).I64()[0] = 99
	if c.Col(0).I64()[0] == 99 {
		t.Error("clone shares storage")
	}
	if c.String() == "" {
		t.Error("String empty")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustColumn should panic on missing column")
		}
	}()
	c.MustColumn("nope")
}

func TestChunkAddLengthMismatchPanics(t *testing.T) {
	c := ChunkOf("x", FromI64([]int64{1, 2}))
	defer func() {
		if recover() == nil {
			t.Error("length mismatch should panic")
		}
	}()
	c.Add("y", FromI64([]int64{1}))
}

// Property: any row stored through NSM reads back identically via Scan.
func TestNSMRoundTripProperty(t *testing.T) {
	sch := NewSchema("a", I64, "b", I16, "c", F64)
	f := func(a int64, b int16, cf float64) bool {
		st := NewNSMStore(sch)
		st.AppendRow(I64Value(a), IntValue(I16, int64(b)), F64Value(cf))
		dst := []*Vector{NewLen(I64, 1), NewLen(I16, 1), NewLen(F64, 1)}
		st.Scan(0, 1, []int{0, 1, 2}, dst)
		return dst[0].I64()[0] == a && dst[1].I16()[0] == b &&
			(dst[2].F64()[0] == cf || cf != cf)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

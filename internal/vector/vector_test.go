package vector

import (
	"math"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		Bool: "bool", I8: "i8", I16: "i16", I32: "i32", I64: "i64", F64: "f64", Str: "str",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestParseKind(t *testing.T) {
	for _, k := range []Kind{Bool, I8, I16, I32, I64, F64, Str} {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := ParseKind("banana"); err == nil {
		t.Error("ParseKind(banana) should fail")
	}
	if _, err := ParseKind("invalid"); err == nil {
		t.Error("ParseKind(invalid) should fail: Invalid is not a usable kind")
	}
}

func TestKindWidth(t *testing.T) {
	widths := map[Kind]int{Bool: 1, I8: 1, I16: 2, I32: 4, I64: 8, F64: 8, Str: 16}
	for k, w := range widths {
		if k.Width() != w {
			t.Errorf("%v.Width() = %d, want %d", k, k.Width(), w)
		}
	}
}

func TestKindPredicates(t *testing.T) {
	for _, k := range []Kind{I8, I16, I32, I64} {
		if !k.IsInteger() || !k.IsNumeric() {
			t.Errorf("%v should be integer+numeric", k)
		}
	}
	if F64.IsInteger() {
		t.Error("f64 is not integer")
	}
	if !F64.IsNumeric() {
		t.Error("f64 is numeric")
	}
	for _, k := range []Kind{Bool, Str} {
		if k.IsNumeric() {
			t.Errorf("%v should not be numeric", k)
		}
	}
}

func TestNewAndAccessors(t *testing.T) {
	for _, k := range []Kind{Bool, I8, I16, I32, I64, F64, Str} {
		v := NewLen(k, 5)
		if v.Kind() != k || v.Len() != 5 {
			t.Fatalf("NewLen(%v,5) got kind=%v len=%d", k, v.Kind(), v.Len())
		}
	}
	v := FromI64([]int64{1, 2, 3})
	if v.I64()[1] != 2 {
		t.Error("FromI64 accessor broken")
	}
	defer func() {
		if recover() == nil {
			t.Error("wrong-kind accessor should panic")
		}
	}()
	_ = v.F64()
}

// TestData: Data[T] is the storage of every kind — writes through it show in
// Get — it allocates nothing, and it panics on the wrong T like the typed
// accessors.
func TestData(t *testing.T) {
	checkData(t, Bool, true)
	checkData(t, I8, int8(-8))
	checkData(t, I16, int16(-16))
	checkData(t, I32, int32(-32))
	checkData(t, I64, int64(-64))
	checkData(t, F64, 6.4)
	checkData(t, Str, "s")
	defer func() {
		if recover() == nil {
			t.Error("Data with the wrong element type should panic")
		}
	}()
	Data[int32](NewLen(I64, 1))
}

func checkData[T Elem](t *testing.T, k Kind, x T) {
	t.Helper()
	v := NewLen(k, 3)
	Data[T](v)[2] = x
	if got, zero := v.Get(2), v.Get(1); got.Equal(zero) || len(Data[T](v)) != 3 {
		t.Errorf("%v: Data write of %v reads back as %v", k, x, got)
	}
	if allocs := testing.AllocsPerRun(100, func() { Data[T](v) }); allocs != 0 {
		t.Errorf("%v: Data allocates %v times per call", k, allocs)
	}
}

func TestSetLenGrow(t *testing.T) {
	v := New(I64, 2, 4)
	v.I64()[0], v.I64()[1] = 10, 20
	v.SetLen(8)
	if v.Len() != 8 {
		t.Fatalf("len=%d", v.Len())
	}
	if v.I64()[0] != 10 || v.I64()[1] != 20 {
		t.Error("grow lost data")
	}
	if v.I64()[7] != 0 {
		t.Error("grown area should be zeroed")
	}
	v.SetLen(1)
	if v.Len() != 1 {
		t.Error("shrink failed")
	}
}

func TestGetSetAllKinds(t *testing.T) {
	cases := []struct {
		k Kind
		x Value
	}{
		{Bool, BoolValue(true)},
		{I8, IntValue(I8, -5)},
		{I16, IntValue(I16, 300)},
		{I32, IntValue(I32, -70000)},
		{I64, I64Value(1 << 40)},
		{F64, F64Value(3.25)},
		{Str, StrValue("hello")},
	}
	for _, c := range cases {
		v := NewLen(c.k, 3)
		v.Set(1, c.x)
		got := v.Get(1)
		if !got.Equal(c.x) {
			t.Errorf("%v: Get(Set(%v)) = %v", c.k, c.x, got)
		}
	}
}

func TestValueString(t *testing.T) {
	if s := I64Value(42).String(); s != "42" {
		t.Errorf("got %q", s)
	}
	if s := StrValue("a").String(); s != `"a"` {
		t.Errorf("got %q", s)
	}
	if s := BoolValue(true).String(); s != "true" {
		t.Errorf("got %q", s)
	}
	if s := (Value{}).String(); s != "<invalid>" {
		t.Errorf("got %q", s)
	}
}

func TestValueEqualNaN(t *testing.T) {
	a, b := F64Value(math.NaN()), F64Value(math.NaN())
	if !a.Equal(b) {
		t.Error("NaN should equal NaN under Value.Equal (test semantics)")
	}
	if F64Value(1).Equal(I64Value(1)) {
		t.Error("different kinds are unequal")
	}
}

func TestCloneIndependence(t *testing.T) {
	v := FromI32([]int32{1, 2, 3})
	w := v.Clone()
	w.I32()[0] = 99
	if v.I32()[0] != 1 {
		t.Error("clone shares storage")
	}
	if !v.Equal(FromI32([]int32{1, 2, 3})) {
		t.Error("Equal broken")
	}
}

func TestSliceView(t *testing.T) {
	v := FromI64([]int64{0, 1, 2, 3, 4})
	s := v.Slice(1, 4)
	if s.Len() != 3 || s.Cap() != 3 || s.I64()[0] != 1 {
		t.Fatalf("slice wrong: %v (cap %d)", s, s.Cap())
	}
	s.I64()[0] = 42
	if v.I64()[1] != 42 {
		t.Error("slice should share storage")
	}
	defer func() {
		if recover() == nil {
			t.Error("out-of-range Slice should panic")
		}
	}()
	v.Slice(3, 10)
}

// TestChunkFrom: the chunk wraps the given columns as they are, and chunks
// sharing one names slice never see each other's added columns.
func TestChunkFrom(t *testing.T) {
	names := []string{"a", "b"}
	a, b := FromI64([]int64{1, 2}), FromF64([]float64{.5, .25})
	c1 := ChunkFrom(names, []*Vector{a, b})
	c2 := ChunkFrom(names, []*Vector{a, b})
	if c1.Len() != 2 || c1.Col(0) != a || c1.Column("b") != b {
		t.Fatalf("ChunkFrom wrong: %v", c1)
	}
	c1.Add("x", FromI64([]int64{7, 8}))
	c2.Add("y", FromI64([]int64{9, 9}))
	if c1.Name(2) != "x" || c2.Name(2) != "y" || len(names) != 2 {
		t.Fatalf("chunks sharing names clobbered each other: %q %q", c1.Name(2), c2.Name(2))
	}
	for _, bad := range []func(){
		func() { ChunkFrom(names, []*Vector{a}) },
		func() { ChunkFrom(names, []*Vector{a, FromI64([]int64{1})}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("mismatched ChunkFrom should panic")
				}
			}()
			bad()
		}()
	}
}

func TestCopyFromAppendVector(t *testing.T) {
	a := FromF64([]float64{1, 2, 3})
	b := NewLen(F64, 3)
	b.CopyFrom(0, a, 0, 3)
	if !a.Equal(b) {
		t.Error("CopyFrom mismatch")
	}
	a.AppendVector(b)
	if a.Len() != 6 || a.F64()[5] != 3 {
		t.Error("AppendVector broken")
	}
}

func TestAppendValueFill(t *testing.T) {
	v := New(Str, 0, 0)
	v.AppendValue(StrValue("x"))
	v.AppendValue(StrValue("y"))
	if v.Len() != 2 || v.Str()[1] != "y" {
		t.Error("AppendValue broken")
	}
	v.Fill(StrValue("z"))
	if v.Str()[0] != "z" || v.Str()[1] != "z" {
		t.Error("Fill broken")
	}
}

func TestConvert(t *testing.T) {
	v := FromI64([]int64{1, -2, 300})
	w, err := v.Convert(I16)
	if err != nil {
		t.Fatal(err)
	}
	if w.I16()[2] != 300 {
		t.Error("convert to i16 wrong")
	}
	f, err := v.Convert(F64)
	if err != nil || f.F64()[1] != -2 {
		t.Errorf("convert to f64 wrong: %v %v", f, err)
	}
	back, err := f.Convert(I64)
	if err != nil || back.I64()[2] != 300 {
		t.Errorf("f64→i64 wrong: %v %v", back, err)
	}
	if _, err := FromStr([]string{"a"}).Convert(I64); err == nil {
		t.Error("str→i64 must fail")
	}
	same, err := v.Convert(I64)
	if err != nil || !same.Equal(v) {
		t.Error("identity convert should clone")
	}
}

func TestFitsInAndRanges(t *testing.T) {
	v := FromI64([]int64{100, -100})
	if !v.FitsIn(I8) {
		t.Error("±100 fits i8")
	}
	v2 := FromI64([]int64{1000})
	if v2.FitsIn(I8) {
		t.Error("1000 does not fit i8")
	}
	if !v2.FitsIn(I16) {
		t.Error("1000 fits i16")
	}
	if FromF64([]float64{1}).FitsIn(I8) {
		t.Error("FitsIn only applies to integer vectors")
	}
	if MinIntKind(0, 100) != I8 {
		t.Error("MinIntKind(0,100)")
	}
	if MinIntKind(0, 40000) != I32 {
		t.Error("MinIntKind(0,40000)")
	}
	if MinIntKind(math.MinInt64, 0) != I64 {
		t.Error("MinIntKind full range")
	}
}

func TestVectorString(t *testing.T) {
	v := FromI64([]int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	s := v.String()
	if s == "" || s[0:3] != "i64" {
		t.Errorf("String() = %q", s)
	}
}

// Property: Convert to a wider integer kind and back is the identity.
func TestConvertRoundTripProperty(t *testing.T) {
	f := func(xs []int16) bool {
		v := FromI16(append([]int16(nil), xs...))
		wide, err := v.Convert(I64)
		if err != nil {
			return false
		}
		back, err := wide.Convert(I16)
		if err != nil {
			return false
		}
		return back.Equal(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Clone is always Equal, Slice(0,len) preserves contents.
func TestCloneSliceProperty(t *testing.T) {
	f := func(xs []int64) bool {
		v := FromI64(append([]int64(nil), xs...))
		if !v.Clone().Equal(v) {
			return false
		}
		return v.Slice(0, v.Len()).Equal(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

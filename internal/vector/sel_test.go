package vector

import (
	"testing"
	"testing/quick"
)

func TestAllSel(t *testing.T) {
	s := AllSel(4)
	if len(s) != 4 || s[0] != 0 || s[3] != 3 {
		t.Errorf("AllSel(4) = %v", s)
	}
	if err := s.Validate(4); err != nil {
		t.Error(err)
	}
}

func TestSelCount(t *testing.T) {
	if Sel(nil).Count(7) != 7 {
		t.Error("nil sel counts all")
	}
	if (Sel{1, 3}).Count(7) != 2 {
		t.Error("explicit sel counts len")
	}
}

func TestSelValidate(t *testing.T) {
	if err := (Sel{0, 2, 5}).Validate(6); err != nil {
		t.Error(err)
	}
	if err := (Sel{2, 1}).Validate(6); err == nil {
		t.Error("unsorted must fail")
	}
	if err := (Sel{0, 0}).Validate(6); err == nil {
		t.Error("duplicate must fail")
	}
	if err := (Sel{6}).Validate(6); err == nil {
		t.Error("out of range must fail")
	}
	if err := (Sel{-1}).Validate(6); err == nil {
		t.Error("negative must fail")
	}
}

func TestIntersect(t *testing.T) {
	a := Sel{0, 2, 4, 6}
	b := Sel{2, 3, 4, 7}
	got := Intersect(a, b, 8)
	want := Sel{2, 4}
	if len(got) != len(want) || got[0] != 2 || got[1] != 4 {
		t.Errorf("Intersect = %v, want %v", got, want)
	}
	if Intersect(nil, nil, 5) != nil {
		t.Error("nil∩nil = nil")
	}
	if got := Intersect(nil, b, 8); len(got) != len(b) {
		t.Error("nil∩b = b")
	}
	if got := Intersect(a, nil, 8); len(got) != len(a) {
		t.Error("a∩nil = a")
	}
}

func TestMaskRoundTrip(t *testing.T) {
	mask := []bool{true, false, true, true, false}
	s := SelFromMask(mask)
	if len(s) != 3 || s[0] != 0 || s[1] != 2 || s[2] != 3 {
		t.Fatalf("SelFromMask = %v", s)
	}
	back := MaskFromSel(s, 5)
	for i := range mask {
		if mask[i] != back[i] {
			t.Fatalf("mask round trip: %v vs %v", mask, back)
		}
	}
	all := MaskFromSel(nil, 3)
	if !all[0] || !all[2] {
		t.Error("nil sel mask should be all true")
	}
}

func TestCondenseVector(t *testing.T) {
	v := FromI64([]int64{10, 11, 12, 13})
	out := Condense(v, Sel{1, 3})
	if out.Len() != 2 || out.I64()[0] != 11 || out.I64()[1] != 13 {
		t.Errorf("Condense = %v", out)
	}
	clone := Condense(v, nil)
	if !clone.Equal(v) {
		t.Error("Condense(nil) clones")
	}
	for _, k := range []Kind{Bool, I8, I16, I32, F64, Str} {
		w := NewLen(k, 4)
		got := Condense(w, Sel{0, 2})
		if got.Len() != 2 || got.Kind() != k {
			t.Errorf("Condense %v broken", k)
		}
	}
}

// Property: mask→sel→mask is the identity.
func TestMaskSelRoundTripProperty(t *testing.T) {
	f := func(mask []bool) bool {
		s := SelFromMask(mask)
		back := MaskFromSel(s, len(mask))
		for i := range mask {
			if mask[i] != back[i] {
				return false
			}
		}
		return s.Validate(len(mask)+1) == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Intersect of two selections is the selection of the two masks'
// conjunction.
func TestSelAlgebraProperty(t *testing.T) {
	f := func(a, b []bool) bool {
		n := min(len(a), len(b))
		both := make([]bool, n)
		for i := range both {
			both[i] = a[i] && b[i]
		}
		got, want := Intersect(SelFromMask(a[:n]), SelFromMask(b[:n]), n), SelFromMask(both)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return got.Validate(n) == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

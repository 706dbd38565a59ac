package vector

import (
	"slices"
	"sync"
	"testing"
)

// strsOf reads every row of v through Get.
func strsOf(v *Vector) []string {
	out := make([]string, v.Len())
	for i := range out {
		out[i] = v.Get(i).S
	}
	return out
}

// sameDict reports whether two coded vectors share one dictionary.
func sameDict(a, b *Vector) bool {
	return a.Coded() && b.Coded() && len(a.Dict()) == len(b.Dict()) && &a.Dict()[0] == &b.Dict()[0]
}

func TestEncodeAndAccessors(t *testing.T) {
	v := Encode([]string{"b", "a", "b", "", "a"})
	if !v.Coded() || !slices.Equal(v.Dict(), []string{"b", "a", ""}) || !slices.Equal(v.Codes(), []int32{0, 1, 0, 2, 1}) {
		t.Fatalf("Encode: dict %q codes %v", v.Dict(), v.Codes())
	}
	if got := strsOf(v); !slices.Equal(got, []string{"b", "a", "b", "", "a"}) {
		t.Fatalf("Get: %q", got)
	}
	if got := v.Str(); !slices.Equal(got, []string{"b", "a", "b", "", "a"}) {
		t.Fatalf("Str: %q", got)
	}
	if got := Data[string](v); !slices.Equal(got, []string{"b", "a", "b", "", "a"}) {
		t.Fatalf("Data: %q", got)
	}
	if v.String() != `str[5]{"b", "a", "b", "", "a"}` {
		t.Fatalf("String: %s", v)
	}
	if !v.Equal(FromStr([]string{"b", "a", "b", "", "a"})) {
		t.Fatal("a coded vector must equal the plain vector of its strings")
	}
	for _, f := range []func(){
		func() { FromStr([]string{"x"}).Codes() },
		func() { FromI64([]int64{1}).Dict() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("Codes/Dict of a vector that is not coded must panic")
				}
			}()
			f()
		}()
	}
}

// TestCodedStrIsAPrivateCopy: Str decodes into a new slice, so writing
// into it changes neither the vector nor another decode of it.
func TestCodedStrIsAPrivateCopy(t *testing.T) {
	v := FromCodes([]int32{0, 1, 1}, []string{"x", "y"})
	w := v.Slice(0, 3)
	s := v.Str()
	s[0] = "changed"
	if v.Get(0).S != "x" || w.Str()[0] != "x" {
		t.Fatal("writing into Str's result changed a coded vector")
	}
	if v.Str()[0] != "x" {
		t.Fatal("Str must decode again on every call")
	}
}

// TestCodedSetEncodes: Set encodes through the vector's dictionary, and a
// string the dictionary lacks is added without touching the dictionary the
// vector shares with others.
func TestCodedSetEncodes(t *testing.T) {
	dict := []string{"x", "y"}
	v := FromCodes([]int32{0, 0, 0}, dict)
	other := v.Clone()
	v.Set(0, StrValue("y"))
	if v.Codes()[0] != 1 || len(v.Dict()) != 2 {
		t.Fatalf("Set of a known string: codes %v dict %q", v.Codes(), v.Dict())
	}
	v.Set(1, StrValue("z"))
	v.AppendValue(StrValue("w"))
	if got := strsOf(v); !slices.Equal(got, []string{"y", "z", "x", "w"}) {
		t.Fatalf("after Set/AppendValue: %q", got)
	}
	if !slices.Equal(dict, []string{"x", "y"}) || len(other.Dict()) != 2 || !slices.Equal(strsOf(other), []string{"x", "x", "x"}) {
		t.Fatalf("the shared dictionary changed: %q, clone %q", dict, other.Dict())
	}
	v.Fill(StrValue("y"))
	if got := strsOf(v); !slices.Equal(got, []string{"y", "y", "y", "y"}) {
		t.Fatalf("Fill: %q", got)
	}
}

// TestCodedStaysCoded: copying, slicing, cloning, condensing and appending
// a coded vector keep it coded over the same dictionary.
func TestCodedStaysCoded(t *testing.T) {
	src := Encode([]string{"a", "b", "c", "a", "b", "c"})
	want := strsOf(src)
	check := func(name string, v *Vector, rows []string) {
		t.Helper()
		if !sameDict(v, src) {
			t.Errorf("%s: not coded over the source dictionary", name)
		}
		if got := strsOf(v); !slices.Equal(got, rows) {
			t.Errorf("%s: %q, want %q", name, got, rows)
		}
	}
	check("Clone", src.Clone(), want)
	check("Slice", src.Slice(1, 4), want[1:4])
	check("Condense", Condense(src, Sel{0, 2, 5}), []string{"a", "c", "c"})
	check("Condense nil", Condense(src, nil), want)

	dst := New(Str, 2, 8)
	CondenseInto(dst, src, Sel{5, 4})
	check("CondenseInto plain dst", dst, []string{"c", "b"})
	CondenseInto(dst, src, nil)
	check("CondenseInto again", dst, want)

	app := New(Str, 0, 0)
	app.AppendVector(src)
	app.AppendVector(src.Slice(0, 2))
	check("AppendVector", app, append(slices.Clone(want), "a", "b"))

	cp := src.Clone()
	cp.CopyFrom(0, src, 3, 3)
	check("CopyFrom", cp, []string{"a", "b", "c", "a", "b", "c"})
	cp.SetLen(20)
	if cp.Cap() < 20 || !cp.Coded() {
		t.Fatal("SetLen growth must keep the vector coded")
	}
}

// TestCodedMixesWithPlain: a plain vector receives strings from a coded
// one and stays plain; a coded vector receiving rows that its dictionary
// does not code turns plain; an empty vector takes its source's form.
func TestCodedMixesWithPlain(t *testing.T) {
	coded := Encode([]string{"a", "b", "a"})
	plain := FromStr([]string{"x", "y", "z"})

	p := FromStr([]string{"", "", ""})
	p.CopyFrom(0, coded, 0, 3)
	if p.Coded() || !slices.Equal(p.Str(), []string{"a", "b", "a"}) {
		t.Fatalf("plain ← coded: coded=%v %q", p.Coded(), p.Str())
	}

	c := coded.Clone()
	c.CopyFrom(1, plain, 0, 2)
	if c.Coded() || !slices.Equal(strsOf(c), []string{"a", "x", "y"}) {
		t.Fatalf("coded ← plain: coded=%v %q", c.Coded(), strsOf(c))
	}
	c = coded.Clone()
	c.CopyFrom(0, Encode([]string{"q"}), 0, 1)
	if c.Coded() || !slices.Equal(strsOf(c), []string{"q", "b", "a"}) {
		t.Fatalf("coded ← other dictionary: coded=%v %q", c.Coded(), strsOf(c))
	}

	d := coded.Clone()
	CondenseInto(d, plain, Sel{2})
	if d.Coded() || !slices.Equal(d.Str(), []string{"z"}) {
		t.Fatalf("CondenseInto coded ← plain: coded=%v %q", d.Coded(), d.Str())
	}

	st := NewDSMStore(NewSchema("s", Str))
	st.AppendChunk(ChunkOf("s", coded))
	sel := ChunkOf("s", coded)
	sel.SetSel(Sel{1})
	st.AppendChunk(sel)
	if !sameDict(st.Col(0), coded) {
		t.Fatal("a store built from coded chunks must be coded over their dictionary")
	}
	other := ChunkOf("s", plain)
	other.SetSel(Sel{0, 2})
	st.AppendChunk(other)
	if st.Col(0).Coded() || !slices.Equal(strsOf(st.Col(0)), []string{"a", "b", "a", "b", "x", "z"}) {
		t.Fatalf("store after a plain chunk: coded=%v %q", st.Col(0).Coded(), strsOf(st.Col(0)))
	}
}

// TestCodedReadsShareNothing: reading one coded column from several
// goroutines at once — Str, Data, Get and a view — writes nothing to it, so
// the race detector finds nothing and every reader sees the column's
// strings.
func TestCodedReadsShareNothing(t *testing.T) {
	want := make([]string, 4096)
	for i := range want {
		want[i] = string(rune('a' + i%7))
	}
	st := DSMStoreOf(NewSchema("s", Str), Encode(want))
	col := st.Col(0)
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 20 {
				got := col.Str()
				if g%2 == 1 {
					got = Data[string](col)
				}
				got[g] = "scribble"
				if col.Get(g).S != want[g] || !slices.Equal(got[4:], want[4:]) {
					errs <- "a concurrent read saw another reader's strings"
					return
				}
				view := []*Vector{New(Str, 0, 0)}
				st.View(g*100, 100, []int{0}, view)
				if !slices.Equal(view[0].Str(), want[g*100:g*100+100]) {
					errs <- "a concurrent view read wrong strings"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestCodedTurnsPlainBeforeGrownRows: a coded vector that grows (SetLen, as
// appends and the interpreter's writes do) and then receives rows its
// dictionary does not code turns plain without reading the grown rows'
// codes, which are zero or left over and need not index its dictionary.
func TestCodedTurnsPlainBeforeGrownRows(t *testing.T) {
	plain := FromStr([]string{"x", "y"})
	foreign := Encode([]string{"q", "r"})
	for _, src := range []*Vector{plain, foreign} {
		empty := Encode(nil)
		empty.AppendVector(src)
		if !slices.Equal(strsOf(empty), []string{strsOf(src)[0], strsOf(src)[1]}) {
			t.Fatalf("empty-dictionary append: %q", strsOf(empty))
		}
		// The interpreter's write: grow to the target, then copy in.
		w := Encode(nil)
		w.SetLen(2)
		w.CopyFrom(0, src, 0, 2)
		if w.Coded() && !src.Coded() || !slices.Equal(strsOf(w), strsOf(src)) {
			t.Fatalf("write into an empty-dictionary vector: coded=%v %q", w.Coded(), strsOf(w))
		}

		// A vector shrunk within its capacity keeps stale codes past its
		// length, here codes of a larger dictionary than the one it gets.
		shrunk := FromCodes([]int32{0, 1, 2, 3, 4, 5}, []string{"a", "b", "c", "d", "e", "f"})
		shrunk.SetCoded([]string{"k"}, 1)
		shrunk.AppendVector(src)
		if got := strsOf(shrunk); !slices.Equal(got, []string{"k", strsOf(src)[0], strsOf(src)[1]}) {
			t.Fatalf("append to a shrunk vector: %q", got)
		}
		shrunk = FromCodes([]int32{0, 1, 2, 3, 4, 5}, []string{"a", "b", "c", "d", "e", "f"})
		shrunk.SetCoded([]string{"k"}, 1)
		c := ChunkOf("s", src)
		c.SetSel(Sel{1})
		st := DSMStoreOf(NewSchema("s", Str), shrunk)
		st.AppendChunk(c)
		if got := strsOf(st.Col(0)); !slices.Equal(got, []string{"k", strsOf(src)[1]}) {
			t.Fatalf("selected append to a shrunk vector: %q", got)
		}
	}
}

// TestDSMCodedScanAndView: a coded table column scans and views as codes
// over its dictionary, and a view copies nothing.
func TestDSMCodedScanAndView(t *testing.T) {
	col := Encode([]string{"a", "b", "c", "a", "b"})
	st := DSMStoreOf(NewSchema("s", Str, "n", I64), col, FromI64([]int64{1, 2, 3, 4, 5}))
	dst := []*Vector{New(Str, 0, 0)}
	if n := st.Scan(1, 3, []int{0}, dst); n != 3 || !sameDict(dst[0], col) || !slices.Equal(strsOf(dst[0]), []string{"b", "c", "a"}) {
		t.Fatalf("Scan: %d rows %v", n, dst[0])
	}
	if &dst[0].Codes()[0] == &col.Codes()[1] {
		t.Fatal("Scan must copy the codes")
	}
	view := []*Vector{New(Str, 0, 0)}
	st.View(0, 2, []int{0}, view)
	if !sameDict(view[0], col) || &view[0].Codes()[0] != &col.Codes()[0] {
		t.Fatal("View must alias the column's codes and dictionary")
	}
	st.View(2, 2, []int{0}, view)
	if got := view[0].Str(); !slices.Equal(got, []string{"c", "a"}) {
		t.Fatalf("a coded view decodes %q", got)
	}
	if !slices.Equal(strsOf(col), []string{"a", "b", "c", "a", "b"}) {
		t.Fatal("decoding a view wrote into the table")
	}

	// A presized store keeps its room when its column turns coded.
	pre := NewDSMStoreCap(NewSchema("s", Str), 64)
	pre.AppendChunk(ChunkOf("s", col))
	if !pre.Col(0).Coded() || pre.Col(0).Cap() < 64 {
		t.Fatalf("presized store: coded=%v cap %d", pre.Col(0).Coded(), pre.Col(0).Cap())
	}
}

func TestSetCoded(t *testing.T) {
	v := FromStr([]string{"x", "y"})
	codes := v.SetCoded([]string{"p", "q"}, 3)
	copy(codes, []int32{1, 0, 1})
	if !v.Coded() || !slices.Equal(strsOf(v), []string{"q", "p", "q"}) {
		t.Fatalf("SetCoded: %v", v)
	}
	again := v.SetCoded([]string{"r"}, 2)
	if &again[0] != &codes[0] {
		t.Fatal("SetCoded must keep the code storage")
	}
}

func TestDSMStoreOfChecksColumns(t *testing.T) {
	for name, f := range map[string]func(){
		"arity":  func() { DSMStoreOf(NewSchema("a", I64, "b", I64), FromI64([]int64{1})) },
		"kind":   func() { DSMStoreOf(NewSchema("a", I64), FromF64([]float64{1})) },
		"length": func() { DSMStoreOf(NewSchema("a", I64, "b", I64), FromI64([]int64{1}), FromI64(nil)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s mismatch accepted", name)
				}
			}()
			f()
		}()
	}
	if st := DSMStoreOf(NewSchema()); st.Rows() != 0 {
		t.Fatal("an empty schema makes an empty table")
	}
}

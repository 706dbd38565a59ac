package colstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/vector"
)

// TestCodedColumnScan: a Str column scans as codes over one dictionary for
// the whole column — chunks that start mid-segment and span several
// segments, each segment with its own local dictionary, all carry the same
// one — and writing a coded table gives the bytes of writing its strings.
func TestCodedColumnScan(t *testing.T) {
	plain := genStore(rand.New(rand.NewSource(5)), 1000)
	tags := plain.Col(2)
	// Repeat a string under a second code: the writer must still store one
	// local code per distinct string.
	dict := append(vector.Encode(tags.Str()).Dict(), "beta")
	codes := vector.Encode(tags.Str()).Codes()
	for i := range codes {
		if i%5 == 0 && dict[codes[i]] == "beta" {
			codes[i] = int32(len(dict) - 1)
		}
	}
	coded := vector.DSMStoreOf(plain.Schema(), plain.Col(0), plain.Col(1), vector.FromCodes(codes, dict))

	dirs := [2]string{t.TempDir(), t.TempDir()}
	for i, st := range []*vector.DSMStore{plain, coded} {
		if err := Write(dirs[i], st, WriteOptions{SegmentRows: 64}); err != nil {
			t.Fatal(err)
		}
	}
	a, err := os.ReadFile(filepath.Join(dirs[0], "tag.col"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dirs[1], "tag.col"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("a coded column wrote other bytes than its strings")
	}

	tb, err := Open(dirs[1])
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	var first []string
	dst := []*vector.Vector{vector.New(vector.Str, 0, 0)}
	for lo := 17; lo < tb.Rows(); lo += 150 {
		n := tb.Scan(lo, 150, []int{2}, dst)
		v := dst[0]
		if !v.Coded() {
			t.Fatal("a Str column must scan coded")
		}
		if first == nil {
			first = v.Dict()
		}
		if len(v.Dict()) != len(first) || &v.Dict()[0] != &first[0] {
			t.Fatalf("chunk at %d carries another dictionary", lo)
		}
		for r := 0; r < n; r++ {
			if got, want := v.Get(r).S, tags.Get(lo+r).S; got != want {
				t.Fatalf("row %d: %q, want %q", lo+r, got, want)
			}
		}
	}
	if len(first) != 5 {
		t.Fatalf("column dictionary %q, want the 5 distinct tags", first)
	}
}

// TestCorruptDictionaryFailsColumn pins what a corrupt local dictionary
// costs: the column dictionary is merged from every segment's on the
// column's first scan, so one bad dictionary makes every scan of that Str
// column fail with ErrCorrupt, a range inside healthy segments included,
// while the table's other columns still scan.
func TestCorruptDictionaryFailsColumn(t *testing.T) {
	want := genStore(rand.New(rand.NewSource(9)), 400)
	dir := t.TempDir()
	if err := Write(dir, want, WriteOptions{SegmentRows: 128}); err != nil {
		t.Fatal(err)
	}
	tb, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	last := tb.cols[2].segs[len(tb.cols[2].segs)-1]
	tb.Close()
	p := filepath.Join(dir, "tag.col")
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	// The last segment's dictionary count: larger than its payload.
	binary.LittleEndian.PutUint32(data[last.off:], 0xffffffff)
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}

	tb, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	dst := []*vector.Vector{vector.New(vector.Str, 0, 0)}
	if _, err := tb.ScanChecked(0, 100, []int{2}, dst); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("scan of the first segment: err = %v, want ErrCorrupt", err)
	}
	ids := []*vector.Vector{vector.New(vector.I64, 0, 0)}
	if n, err := tb.ScanChecked(0, 400, []int{0}, ids); err != nil || n != 400 {
		t.Fatalf("i64 column: n = %d, err = %v", n, err)
	}
}

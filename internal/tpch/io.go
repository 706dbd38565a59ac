// Binary table persistence: CI generates the benchmark tables once per job
// into a shared directory instead of re-deriving them inside every binary
// invocation (the generator is O(rows) of rand calls, which dominated the
// bench smoke steps).

package tpch

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/colstore"
	"repro/internal/vector"
)

// tableMagic versions the on-disk format.
const tableMagic = "ADVMTBL1"

// SaveTable writes a table to path in the binary columnar format (schema
// header, then each column's raw data). The write goes through a temp file
// renamed into place, so an interrupted save never leaves a truncated table
// behind.
func SaveTable(path string, st *vector.DSMStore) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	w := bufio.NewWriterSize(f, 1<<20)
	err = writeTable(w, st)
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

func writeTable(w io.Writer, st *vector.DSMStore) error {
	if _, err := io.WriteString(w, tableMagic); err != nil {
		return err
	}
	sch := st.Schema()
	if err := binary.Write(w, binary.LittleEndian, uint32(len(sch.Names))); err != nil {
		return err
	}
	for i, name := range sch.Names {
		if err := writeString(w, name); err != nil {
			return err
		}
		if err := binary.Write(w, binary.LittleEndian, uint8(sch.Kinds[i])); err != nil {
			return err
		}
	}
	if err := binary.Write(w, binary.LittleEndian, uint64(st.Rows())); err != nil {
		return err
	}
	for c := range sch.Names {
		col := st.Col(c)
		switch sch.Kinds[c] {
		case vector.Bool:
			if err := binary.Write(w, binary.LittleEndian, col.Bool()); err != nil {
				return err
			}
		case vector.I8:
			if err := binary.Write(w, binary.LittleEndian, col.I8()); err != nil {
				return err
			}
		case vector.I16:
			if err := binary.Write(w, binary.LittleEndian, col.I16()); err != nil {
				return err
			}
		case vector.I32:
			if err := binary.Write(w, binary.LittleEndian, col.I32()); err != nil {
				return err
			}
		case vector.I64:
			if err := binary.Write(w, binary.LittleEndian, col.I64()); err != nil {
				return err
			}
		case vector.F64:
			if err := binary.Write(w, binary.LittleEndian, col.F64()); err != nil {
				return err
			}
		case vector.Str:
			if col.Coded() {
				dict := col.Dict()
				for _, c := range col.Codes() {
					if err := writeString(w, dict[c]); err != nil {
						return err
					}
				}
				break
			}
			for _, s := range col.Str() {
				if err := writeString(w, s); err != nil {
					return err
				}
			}
		default:
			return fmt.Errorf("tpch: unsupported column kind %v", sch.Kinds[c])
		}
	}
	return nil
}

// LoadTable reads a table written by SaveTable.
func LoadTable(path string) (*vector.DSMStore, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return readTable(bufio.NewReaderSize(f, 1<<20))
}

func readTable(r io.Reader) (*vector.DSMStore, error) {
	magic := make([]byte, len(tableMagic))
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, err
	}
	if string(magic) != tableMagic {
		return nil, fmt.Errorf("tpch: bad table magic %q", magic)
	}
	var ncols uint32
	if err := binary.Read(r, binary.LittleEndian, &ncols); err != nil {
		return nil, err
	}
	sch := vector.Schema{}
	for i := uint32(0); i < ncols; i++ {
		name, err := readString(r)
		if err != nil {
			return nil, err
		}
		var kind uint8
		if err := binary.Read(r, binary.LittleEndian, &kind); err != nil {
			return nil, err
		}
		sch.Names = append(sch.Names, name)
		sch.Kinds = append(sch.Kinds, vector.Kind(kind))
	}
	var rows uint64
	if err := binary.Read(r, binary.LittleEndian, &rows); err != nil {
		return nil, err
	}
	n := int(rows)
	cols := make([]*vector.Vector, len(sch.Names))
	for c := range sch.Names {
		var col *vector.Vector
		switch sch.Kinds[c] {
		case vector.Bool:
			data := make([]bool, n)
			if err := binary.Read(r, binary.LittleEndian, data); err != nil {
				return nil, err
			}
			col = vector.FromBool(data)
		case vector.I8:
			data := make([]int8, n)
			if err := binary.Read(r, binary.LittleEndian, data); err != nil {
				return nil, err
			}
			col = vector.FromI8(data)
		case vector.I16:
			data := make([]int16, n)
			if err := binary.Read(r, binary.LittleEndian, data); err != nil {
				return nil, err
			}
			col = vector.FromI16(data)
		case vector.I32:
			data := make([]int32, n)
			if err := binary.Read(r, binary.LittleEndian, data); err != nil {
				return nil, err
			}
			col = vector.FromI32(data)
		case vector.I64:
			data := make([]int64, n)
			if err := binary.Read(r, binary.LittleEndian, data); err != nil {
				return nil, err
			}
			col = vector.FromI64(data)
		case vector.F64:
			data := make([]float64, n)
			if err := binary.Read(r, binary.LittleEndian, data); err != nil {
				return nil, err
			}
			col = vector.FromF64(data)
		case vector.Str:
			data := make([]string, n)
			for i := 0; i < n; i++ {
				s, err := readString(r)
				if err != nil {
					return nil, err
				}
				data[i] = s
			}
			col = vector.Encode(data)
		default:
			return nil, fmt.Errorf("tpch: unsupported column kind %v", sch.Kinds[c])
		}
		cols[c] = col
	}
	return vector.DSMStoreOf(sch, cols...), nil
}

func writeString(w io.Writer, s string) error {
	if err := binary.Write(w, binary.LittleEndian, uint32(len(s))); err != nil {
		return err
	}
	_, err := io.WriteString(w, s)
	return err
}

func readString(r io.Reader) (string, error) {
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return "", err
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

// TableFile is the canonical file name of a generated table at a scale
// factor and seed.
func TableFile(table string, sf float64, seed int64) string {
	return fmt.Sprintf("%s_sf%.4f_seed%d.tbl", table, sf, seed)
}

// Gen generates one of the TPC-H tables by name.
func Gen(table string, sf float64, seed int64) (*vector.DSMStore, error) {
	switch table {
	case "lineitem":
		return GenLineitem(sf, seed), nil
	case "orders":
		return GenOrders(sf, seed), nil
	case "customer":
		return GenCustomer(sf, seed), nil
	}
	return nil, fmt.Errorf("tpch: unknown table %q", table)
}

// ColstoreDir is the canonical colstore directory name of a table at a
// scale factor and seed (below some root; see LoadOrGenColstore).
func ColstoreDir(table string, sf float64, seed int64) string {
	return fmt.Sprintf("%s_sf%.4f_seed%d.colstore", table, sf, seed)
}

// ColstoreSegmentRows picks a segment size for a table of n rows: the
// default 64k-row segments for SF≥1-sized tables, scaled down (to a 1024-row
// floor) for smaller ones so even bench-scale tables span enough segments
// for zone maps to prune.
func ColstoreSegmentRows(n int) int {
	seg := colstore.DefaultSegmentRows
	for seg > 1024 && n < 16*seg {
		seg /= 2
	}
	return seg
}

// LoadOrGenColstore ensures the named table exists as a colstore directory
// under root and returns that directory. An existing directory that fails to
// open (truncated or stale format) is regenerated in place. The in-RAM
// generator output is cached alongside via LoadOrGen, so repeated
// invocations in one environment neither regenerate nor re-encode.
func LoadOrGenColstore(root, table string, sf float64, seed int64) (string, error) {
	dir := filepath.Join(root, ColstoreDir(table, sf, seed))
	if t, err := colstore.Open(dir); err == nil {
		t.Close()
		return dir, nil
	}
	st, err := LoadOrGen(root, table, sf, seed)
	if err != nil {
		return "", err
	}
	opts := colstore.WriteOptions{SegmentRows: ColstoreSegmentRows(st.Rows())}
	if err := colstore.Write(dir, st, opts); err != nil {
		return "", err
	}
	return dir, nil
}

// LoadOrGen returns the named table from dir when a saved copy exists,
// otherwise generates it — and, when dir is non-empty, saves the result so
// the next invocation in the same environment reuses it. A saved copy that
// fails to load for any reason (missing, truncated, stale format) is
// regenerated and overwritten rather than poisoning the cache. dir == ""
// always generates.
func LoadOrGen(dir, table string, sf float64, seed int64) (*vector.DSMStore, error) {
	if dir == "" {
		return Gen(table, sf, seed)
	}
	path := filepath.Join(dir, TableFile(table, sf, seed))
	if st, err := LoadTable(path); err == nil {
		return st, nil
	}
	st, err := Gen(table, sf, seed)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := SaveTable(path, st); err != nil {
		return nil, err
	}
	return st, nil
}

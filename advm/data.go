package advm

import (
	"repro/internal/colstore"
	"repro/internal/vector"
)

// The data-plane types are shared with the internal execution layers by
// alias, so embedding applications hand vectors to the VM without copies and
// without importing internal packages. Only the configuration surface
// (vm.Config, jit.Options, depgraph.Constraints) is hidden behind Session
// options; the columnar containers are the public currency of the API.
type (
	// Vector is a typed columnar array, the unit of data exchanged with the
	// VM through Session.Run bindings.
	Vector = vector.Vector
	// Kind is the element type of a Vector.
	Kind = vector.Kind
	// Value is one boxed element (used by Vector.Get/Set and Table rows).
	Value = vector.Value
	// Chunk is a set of equal-length column vectors plus an optional
	// selection vector — the unit of streaming in Query pipelines.
	Chunk = vector.Chunk
	// Table is a decomposed (column-wise) store queryable with Scan.
	// Queries read a Table in place, without copying its columns, so a
	// Table must not be mutated (AppendRow, AppendChunk, writes through
	// Col) while a query that reads it is open.
	Table = vector.DSMStore
	// TableSource is any columnar row source a Scan plan can read: an
	// in-RAM Table, a disk-backed StoredTable opened from a colstore
	// directory, or any other implementation of the columnar Store
	// contract.
	TableSource = vector.Store
	// StoredTable is a disk-backed compressed columnar table, opened from a
	// colstore directory via Engine.OpenTable or Session.OpenTable (see
	// WithTableDir). Scans over stored tables decode per chunk from the
	// memory-mapped segment files, and filters whose predicates imply an
	// interval on a scanned column skip whole segments via the per-segment
	// zone maps (see WithScanPruning).
	StoredTable = colstore.Table
	// Schema describes a Table's column names and kinds.
	Schema = vector.Schema
)

// Element kinds.
const (
	Bool = vector.Bool
	I8   = vector.I8
	I16  = vector.I16
	I32  = vector.I32
	I64  = vector.I64
	F64  = vector.F64
	Str  = vector.Str
)

// DefaultChunkLen is the default number of rows processed per chunk.
const DefaultChunkLen = vector.DefaultChunkLen

// NewVector creates a vector of n elements of kind k with the given capacity.
func NewVector(k Kind, n, capacity int) *Vector { return vector.New(k, n, capacity) }

// NewVectorLen creates a zeroed vector of n elements of kind k.
func NewVectorLen(k Kind, n int) *Vector { return vector.NewLen(k, n) }

// FromBool wraps a bool slice without copying.
func FromBool(data []bool) *Vector { return vector.FromBool(data) }

// FromI8 wraps an int8 slice without copying.
func FromI8(data []int8) *Vector { return vector.FromI8(data) }

// FromI16 wraps an int16 slice without copying.
func FromI16(data []int16) *Vector { return vector.FromI16(data) }

// FromI32 wraps an int32 slice without copying.
func FromI32(data []int32) *Vector { return vector.FromI32(data) }

// FromI64 wraps an int64 slice without copying.
func FromI64(data []int64) *Vector { return vector.FromI64(data) }

// FromF64 wraps a float64 slice without copying.
func FromF64(data []float64) *Vector { return vector.FromF64(data) }

// FromStr wraps a string slice without copying.
func FromStr(data []string) *Vector { return vector.FromStr(data) }

// ParseKind parses a kind name ("bool", "i8" … "i64", "f64", "str").
func ParseKind(s string) (Kind, error) { return vector.ParseKind(s) }

// BoolValue boxes a bool.
func BoolValue(b bool) Value { return vector.BoolValue(b) }

// IntValue boxes an integer of kind k.
func IntValue(k Kind, i int64) Value { return vector.IntValue(k, i) }

// I64Value boxes an int64.
func I64Value(i int64) Value { return vector.I64Value(i) }

// F64Value boxes a float64.
func F64Value(f float64) Value { return vector.F64Value(f) }

// StrValue boxes a string.
func StrValue(s string) Value { return vector.StrValue(s) }

// NewSchema builds a schema from ("name", Kind, "name", Kind, …) pairs.
func NewSchema(pairs ...any) Schema { return vector.NewSchema(pairs...) }

// NewTable creates an empty column-wise table with the given schema.
func NewTable(sch Schema) *Table { return vector.NewDSMStore(sch) }

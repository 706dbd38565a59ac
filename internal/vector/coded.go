package vector

// This file holds the dictionary-coded form of Str vectors: a row is a
// 4-byte code into a dictionary shared by every vector coded over it,
// instead of a 16-byte string header. Tables hand out coded columns so the
// codes travel from storage to the aggregation, which groups on them.

// FromCodes wraps codes as a Str vector coded over dict (no copy). dict is
// shared by reference from then on and must not be mutated; every code
// must index it.
func FromCodes(codes []int32, dict []string) *Vector {
	return &Vector{kind: Str, n: len(codes), coded: true, codes: codes, dict: dict[:len(dict):len(dict)]}
}

// Encode returns a coded vector holding strs, over a dictionary of their
// distinct values in first-occurrence order.
func Encode(strs []string) *Vector {
	index := map[string]int32{}
	var dict []string
	codes := make([]int32, len(strs))
	for i, s := range strs {
		c, ok := index[s]
		if !ok {
			c = int32(len(dict))
			index[s] = c
			dict = append(dict, s)
		}
		codes[i] = c
	}
	return FromCodes(codes, dict)
}

// Coded reports whether v is a dictionary-coded Str vector.
func (v *Vector) Coded() bool { return v.coded }

// Codes returns a coded vector's codes. Panics unless v is coded.
func (v *Vector) Codes() []int32 {
	v.codedCheck()
	return v.codes
}

// Dict returns a coded vector's dictionary, which the caller must not
// mutate. Panics unless v is coded.
func (v *Vector) Dict() []string {
	v.codedCheck()
	return v.dict
}

func (v *Vector) codedCheck() {
	if !v.coded {
		panic("vector: " + v.kind.String() + " vector is not dictionary-coded")
	}
}

// SetCoded makes the Str vector v a coded vector of n rows over dict and
// returns its codes for the caller to fill. v keeps its code storage when
// that is large enough, so a scan refilling one vector per chunk allocates
// only while it grows.
func (v *Vector) SetCoded(dict []string, n int) []int32 {
	v.kindCheck(Str)
	if !v.coded {
		// Keep the room a presized plain vector had (NewDSMStoreCap).
		if cap(v.codes) < cap(v.str) {
			v.codes = make([]int32, 0, cap(v.str))
		}
		v.coded, v.str, v.codes = true, nil, v.codes[:0]
	}
	v.dict = dict[:len(dict):len(dict)]
	v.n = 0
	v.SetLen(n)
	return v.codes
}

// decode returns v's strings, decoded from its codes into a new slice. It
// writes nothing to v, so goroutines may decode one shared vector at once.
func (v *Vector) decode() []string {
	out := make([]string, v.n)
	for i, c := range v.codes {
		out[i] = v.dict[c]
	}
	return out
}

// encode returns the code of s in v's dictionary. A string the dictionary
// lacks is appended to it; the dictionaries v shares were handed out with
// their capacity clipped, so the append copies instead of writing where
// another vector could see it.
func (v *Vector) encode(s string) int32 {
	for i, d := range v.dict {
		if d == s {
			return int32(i)
		}
	}
	v.dict = append(v.dict, s)
	return int32(len(v.dict) - 1)
}

// takesCodesOf reports whether src's codes mean the same strings in the
// coded vector v: src is coded over v's dictionary or a prefix of it.
func (v *Vector) takesCodesOf(src *Vector) bool {
	return src.coded && len(src.dict) <= len(v.dict) &&
		(len(src.dict) == 0 || &src.dict[0] == &v.dict[0])
}

// toPlain turns the coded vector v into a plain one holding the same
// strings. Callers turn v plain just before overwriting some of its rows,
// which may lie past the length v had (SetLen grew it) and hold zero or
// stale codes that need not index the dictionary: those rows decode as "".
func (v *Vector) toPlain() {
	str := make([]string, v.n, cap(v.codes))
	for i, c := range v.codes {
		if uint(c) < uint(len(v.dict)) {
			str[i] = v.dict[c]
		}
	}
	v.coded, v.str, v.codes, v.dict = false, str, nil, nil
}

// adopt gives the Str vector v, whose rows are about to be overwritten from
// src, src's form: coded over src's dictionary, or plain. v keeps its
// length. A plain vector's strings may be a view of another vector's, so
// turning coded drops them rather than reusing them as a buffer.
func (v *Vector) adopt(src *Vector) {
	switch {
	case v.kind != Str:
	case src.coded && !(v.coded && v.takesCodesOf(src)):
		n := v.n
		v.SetCoded(src.dict, n)
	case !src.coded && v.coded:
		v.coded, v.str, v.codes, v.dict = false, make([]string, v.n, cap(v.codes)), nil, nil
	}
}

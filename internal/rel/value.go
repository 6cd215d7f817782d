// Package rel defines the relational data model shared across the engine:
// typed values, schemas, rows, comparison semantics, and a compact binary
// row codec used by the storage layer and the AI streaming protocol.
package rel

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"time"
	"unsafe"
)

// Type identifies the type of a Value.
//
//lint:closedenum
type Type uint8

// Supported column types. The engine is deliberately small: integers,
// floats, text and booleans cover every workload in the paper's evaluation.
const (
	TypeNull Type = iota
	TypeInt
	TypeFloat
	TypeText
	TypeBool
)

// String returns the SQL-ish name of the type.
func (t Type) String() string {
	switch t {
	case TypeNull:
		return "NULL"
	case TypeInt:
		return "BIGINT"
	case TypeFloat:
		return "DOUBLE"
	case TypeText:
		return "TEXT"
	case TypeBool:
		return "BOOLEAN"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// Value is a single typed datum in 16 bytes: a pointer p and a payload
// word n. For NULL p is nil (the zero Value is NULL). An INT, DOUBLE or
// BOOL points p at its type's byte in typeTag and keeps its payload in n:
// an INT as an int64, a DOUBLE as its math.Float64bits, a BOOL as 0 or 1.
// A TEXT points p at its bytes and keeps its length in n; an empty TEXT
// points at typeTag[TypeText], so it is never NULL. A five-column row is
// 80 bytes of values.
//
// The identity of a TEXT is therefore a pointer, and two equal strings may
// have different ones. The leading [0]func() makes Value incomparable, so
// == on a Value (or a struct, array or map key that holds one) does not
// compile; compare with Compare or Equal, or by EncodeValue bytes.
type Value struct {
	_ [0]func()
	p unsafe.Pointer
	n uint64
}

// typeTag holds one byte per type; the p of a non-TEXT, non-NULL Value
// points at its type's byte, so Type is the offset from typeTag.
var typeTag [5]byte

// tagged returns the value of type t, which is neither NULL nor TEXT, with
// payload n.
func tagged(t Type, n uint64) Value { return Value{p: unsafe.Pointer(&typeTag[t]), n: n} }

// Null returns the NULL value.
func Null() Value { return Value{} }

// Int wraps an int64 as a Value.
func Int(v int64) Value { return tagged(TypeInt, uint64(v)) }

// Float wraps a float64 as a Value.
func Float(v float64) Value { return tagged(TypeFloat, math.Float64bits(v)) }

// Text wraps a string as a Value. The Value shares the string's bytes.
func Text(v string) Value {
	if len(v) == 0 {
		return Value{p: unsafe.Pointer(&typeTag[TypeText])}
	}
	return Value{p: unsafe.Pointer(unsafe.StringData(v)), n: uint64(len(v))}
}

// Bool wraps a bool as a Value.
func Bool(v bool) Value {
	if v {
		return tagged(TypeBool, 1)
	}
	return tagged(TypeBool, 0)
}

// tag is p's offset from typeTag: the type of an INT, DOUBLE, BOOL or empty
// TEXT, and len(typeTag) or more for anything else. No uintptr is turned
// back into a pointer.
func (v Value) tag() uintptr { return uintptr(v.p) - uintptr(unsafe.Pointer(&typeTag)) }

// Type returns the value's type; TypeNull for NULL. A p inside typeTag
// names its type by its offset; any other non-nil p is a TEXT's bytes.
func (v Value) Type() Type {
	if d := v.tag(); d < uintptr(len(typeTag)) {
		return Type(d)
	}
	if v.p == nil {
		return TypeNull
	}
	return TypeText
}

// str returns a TEXT's string; it is only called on a TEXT.
func (v Value) str() string { return unsafe.String((*byte)(v.p), int(v.n)) }

// Bits returns the payload word: an INT's int64, a DOUBLE's float64 bits, a
// BOOL's 0 or 1, and 0 for NULL and TEXT. Kernels that have switched on Type
// already read it instead of an As* conversion.
func (v Value) Bits() uint64 {
	if v.tag() < uintptr(len(typeTag)) {
		return v.n // an empty TEXT's n is 0
	}
	return 0
}

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.p == nil }

// FromGo converts a native Go value into an engine Value — the single
// parameter-conversion table shared by the embedded client API and the wire
// driver, so the same Go program binds identically in-process and over TCP.
// []byte and time.Time arrive as TEXT (RFC 3339 for times); unsigned values
// that overflow int64 are rejected rather than wrapped. A *Value binds the
// value it points at, so a caller holding a []Value (the wire server) can
// pass each one without boxing a copy.
func FromGo(a any) (Value, error) {
	switch v := a.(type) {
	case nil:
		return Null(), nil
	case Value:
		return v, nil
	case *Value:
		return *v, nil
	case int:
		return Int(int64(v)), nil
	case int8:
		return Int(int64(v)), nil
	case int16:
		return Int(int64(v)), nil
	case int32:
		return Int(int64(v)), nil
	case int64:
		return Int(v), nil
	case uint:
		if uint64(v) > math.MaxInt64 {
			return Value{}, fmt.Errorf("uint parameter %d overflows int64", v)
		}
		return Int(int64(v)), nil
	case uint8:
		return Int(int64(v)), nil
	case uint16:
		return Int(int64(v)), nil
	case uint32:
		return Int(int64(v)), nil
	case uint64:
		if v > math.MaxInt64 {
			return Value{}, fmt.Errorf("uint64 parameter %d overflows int64", v)
		}
		return Int(int64(v)), nil
	case float32:
		return Float(float64(v)), nil
	case float64:
		return Float(v), nil
	case string:
		return Text(v), nil
	case []byte:
		return Text(string(v)), nil
	case bool:
		return Bool(v), nil
	case time.Time:
		return Text(v.Format(time.RFC3339Nano)), nil
	default:
		return Value{}, fmt.Errorf("unsupported parameter type %v", reflect.TypeOf(a))
	}
}

// AsFloat converts numeric and boolean values to float64; text parses if
// possible. It is the canonical featurization path for AI operators.
func (v Value) AsFloat() float64 {
	switch v.Type() {
	case TypeInt:
		return float64(int64(v.n))
	case TypeFloat:
		return math.Float64frombits(v.n)
	case TypeBool:
		return float64(v.n)
	case TypeText:
		f, err := strconv.ParseFloat(v.str(), 64)
		if err != nil {
			return 0
		}
		return f
	default:
		return 0
	}
}

// AsInt converts the value to an int64 using truncation semantics.
func (v Value) AsInt() int64 {
	switch v.Type() {
	case TypeInt, TypeBool:
		return int64(v.n)
	case TypeFloat:
		return int64(math.Float64frombits(v.n))
	case TypeText:
		i, err := strconv.ParseInt(v.str(), 10, 64)
		if err != nil {
			return 0
		}
		return i
	default:
		return 0
	}
}

// AsBool converts the value to a boolean; non-zero numerics are true.
func (v Value) AsBool() bool {
	switch v.Type() {
	case TypeBool, TypeInt:
		return v.n != 0
	case TypeFloat:
		return math.Float64frombits(v.n) != 0
	case TypeText:
		s := v.str()
		return s == "true" || s == "t" || s == "1"
	default:
		return false
	}
}

// GoValue returns the value's native Go representation (nil, int64,
// float64, string or bool) — the inverse of FromGo for scan results.
func (v Value) GoValue() any {
	switch v.Type() {
	case TypeInt:
		return int64(v.n)
	case TypeFloat:
		return math.Float64frombits(v.n)
	case TypeText:
		return v.str()
	case TypeBool:
		return v.n != 0
	default:
		return nil
	}
}

// Assign copies the value into a Scan target — the single conversion table
// shared by the embedded cursor and the wire client, so Scan behaves
// identically in-process and over TCP. Supported targets: *Value, *any,
// *int, *int64, *float64, *string, *bool. SQL NULL assigns the target's
// zero value (nil for *any).
func Assign(dest any, v Value) error {
	switch d := dest.(type) {
	case *Value:
		*d = v
	case *any:
		*d = v.GoValue()
	case *int64:
		*d = v.AsInt()
	case *int:
		*d = int(v.AsInt())
	case *float64:
		*d = v.AsFloat()
	case *string:
		if v.IsNull() {
			*d = ""
		} else {
			*d = v.String()
		}
	case *bool:
		*d = v.AsBool()
	default:
		// reflect.TypeOf, unlike %T, lets dest stay on the caller's stack.
		return fmt.Errorf("unsupported Scan target %v", reflect.TypeOf(dest))
	}
	return nil
}

// String renders the value the way the CLI prints it.
func (v Value) String() string {
	switch v.Type() {
	case TypeNull:
		return "NULL"
	case TypeInt:
		return strconv.FormatInt(int64(v.n), 10)
	case TypeFloat:
		return strconv.FormatFloat(math.Float64frombits(v.n), 'g', -1, 64)
	case TypeText:
		return v.str()
	case TypeBool:
		if v.n != 0 {
			return "true"
		}
		return "false"
	default:
		return "?"
	}
}

// GoString renders the value, for %#v, as the call that constructs it:
// rel.Null(), rel.Int(42), rel.Float(-1.5), rel.Text("a\x00b"),
// rel.Bool(true). A DOUBLE that no literal spells is written through package
// math (math.Inf(1), math.Copysign(0, -1), math.NaN(), or
// math.Float64frombits for any other NaN), so the string is exact.
func (v Value) GoString() string {
	switch v.Type() {
	case TypeNull:
		return "rel.Null()"
	case TypeInt:
		return "rel.Int(" + strconv.FormatInt(int64(v.n), 10) + ")"
	case TypeFloat:
		f, lit := math.Float64frombits(v.n), ""
		switch {
		case v.n == math.Float64bits(math.NaN()):
			lit = "math.NaN()"
		case math.IsNaN(f):
			lit = "math.Float64frombits(0x" + strconv.FormatUint(v.n, 16) + ")"
		case math.IsInf(f, 0):
			lit = "math.Inf(" + strconv.Itoa(int(math.Copysign(1, f))) + ")"
		case f == 0 && math.Signbit(f):
			lit = "math.Copysign(0, -1)"
		default:
			lit = strconv.FormatFloat(f, 'g', -1, 64)
		}
		return "rel.Float(" + lit + ")"
	case TypeText:
		return "rel.Text(" + strconv.Quote(v.str()) + ")"
	case TypeBool:
		return "rel.Bool(" + strconv.FormatBool(v.n != 0) + ")"
	default:
		return "rel.Value(?)"
	}
}

// typeClass buckets types so Compare is a total order: NULL sorts before
// every numeric (int/float/bool compare by value) which sorts before text.
func typeClass(t Type) int {
	switch t {
	case TypeNull:
		return 0
	case TypeInt, TypeFloat, TypeBool:
		return 1
	default:
		return 2
	}
}

// Compare orders two values. NULL sorts first; int/float/bool compare
// numerically by value; text compares lexicographically; the classes
// themselves are ordered NULL < numeric < text so Compare is a total order.
// Numeric comparison is exact: two INTs compare as int64s, an INT and a
// DOUBLE by their mathematical values (compareIntFloat), so distinct INTs
// above 2^53 stay distinct. A NaN compares equal to every number.
func Compare(a, b Value) int {
	ca, cb := typeClass(a.Type()), typeClass(b.Type())
	if ca != cb {
		if ca < cb {
			return -1
		}
		return 1
	}
	switch ca {
	case 0:
		return 0
	case 1:
		return compareNum(a, b)
	default:
		return strings.Compare(a.str(), b.str())
	}
}

// compareNum is Compare for two numeric values. A BOOL's payload is its
// int64 value 0 or 1, so it compares as an INT.
func compareNum(a, b Value) int {
	switch af, bf := a.Type() == TypeFloat, b.Type() == TypeFloat; {
	case !af && !bf:
		return cmp.Compare(int64(a.n), int64(b.n))
	case !af:
		return compareIntFloat(int64(a.n), math.Float64frombits(b.n))
	case !bf:
		return -compareIntFloat(int64(b.n), math.Float64frombits(a.n))
	default:
		return compareFloat(math.Float64frombits(a.n), math.Float64frombits(b.n))
	}
}

// compareFloat orders two float64s with NaN equal to everything: neither
// less nor greater is equal.
func compareFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// compareIntFloat orders an int64 against a float64 by their exact values,
// without rounding i to a float64 (which would make 2^53+1 equal 2^53).
func compareIntFloat(i int64, f float64) int {
	switch {
	case f != f: // NaN
		return 0
	case f >= 0x1p63:
		return -1
	case f < -0x1p63:
		return 1
	}
	// |f| < 2^63 (or f = -2^63), so its integral part t is an exact int64.
	t := int64(f)
	if i != t {
		return cmp.Compare(i, t)
	}
	// i = t, so f's fractional part, exact in float64, decides.
	return compareFloat(0, f-float64(t))
}

// Equal reports whether two values compare equal. NULL never equals NULL
// under SQL semantics; use Compare for ordering semantics instead.
func Equal(a, b Value) bool {
	if a.IsNull() || b.IsNull() {
		return false
	}
	return Compare(a, b) == 0
}

// Hash returns a 64-bit hash of the value, used by hash joins and the hash
// index. Values that compare equal hash identically: a numeric value hashes
// by its float64 value (-0 as 0), so 1, 1.0 and TRUE share a hash, and an
// INT float64 cannot hold shares one with the float it rounds to.
func (v Value) Hash() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(b byte) { h = (h ^ uint64(b)) * prime64 }
	switch v.Type() {
	case TypeNull:
		mix(0)
	case TypeInt, TypeFloat, TypeBool:
		f := v.AsFloat()
		if f == 0 {
			f = 0 // normalize -0
		}
		bits := math.Float64bits(f)
		for i := 0; i < 8; i++ {
			mix(byte(bits >> (8 * i)))
		}
	case TypeText:
		mix(4)
		s := v.str()
		for i := 0; i < len(s); i++ {
			mix(s[i])
		}
	}
	return h
}

// EncodeValue appends a self-delimiting binary encoding of v to dst.
func EncodeValue(dst []byte, v Value) []byte {
	t := v.Type()
	dst = append(dst, byte(t))
	switch t {
	case TypeNull:
		// The tag byte alone: NULL carries no payload.
	case TypeInt, TypeFloat:
		dst = binary.LittleEndian.AppendUint64(dst, v.n)
	case TypeText:
		dst = binary.LittleEndian.AppendUint32(dst, uint32(v.n))
		dst = append(dst, v.str()...)
	case TypeBool:
		dst = append(dst, byte(v.n))
	}
	return dst
}

// DecodeValue decodes a value produced by EncodeValue, returning the value
// and the number of bytes consumed.
func DecodeValue(src []byte) (Value, int, error) {
	if len(src) == 0 {
		return Value{}, 0, fmt.Errorf("rel: decode value: empty input")
	}
	t := Type(src[0])
	rest := src[1:]
	switch t {
	case TypeNull:
		return Null(), 1, nil
	case TypeInt:
		if len(rest) < 8 {
			return Value{}, 0, fmt.Errorf("rel: decode int: short input")
		}
		return Int(int64(binary.LittleEndian.Uint64(rest))), 9, nil
	case TypeFloat:
		if len(rest) < 8 {
			return Value{}, 0, fmt.Errorf("rel: decode float: short input")
		}
		return Float(math.Float64frombits(binary.LittleEndian.Uint64(rest))), 9, nil
	case TypeText:
		if len(rest) < 4 {
			return Value{}, 0, fmt.Errorf("rel: decode text: short input")
		}
		n := int(binary.LittleEndian.Uint32(rest))
		if len(rest) < 4+n {
			return Value{}, 0, fmt.Errorf("rel: decode text: short payload")
		}
		return Text(string(rest[4 : 4+n])), 5 + n, nil
	case TypeBool:
		if len(rest) < 1 {
			return Value{}, 0, fmt.Errorf("rel: decode bool: short input")
		}
		return Bool(rest[0] != 0), 2, nil
	default:
		return Value{}, 0, fmt.Errorf("rel: decode: unknown type tag %d", t)
	}
}

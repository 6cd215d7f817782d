// Package rel defines the relational data model shared across the engine:
// typed values, schemas, rows, comparison semantics, and a compact binary
// row codec used by the storage layer and the AI streaming protocol.
package rel

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"time"
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

// Value is a single typed datum. The zero Value is NULL.
type Value struct {
	Typ Type
	I   int64
	F   float64
	S   string
	B   bool
}

// Null returns the NULL value.
func Null() Value { return Value{Typ: TypeNull} }

// Int wraps an int64 as a Value.
func Int(v int64) Value { return Value{Typ: TypeInt, I: v} }

// Float wraps a float64 as a Value.
func Float(v float64) Value { return Value{Typ: TypeFloat, F: v} }

// Text wraps a string as a Value.
func Text(v string) Value { return Value{Typ: TypeText, S: v} }

// Bool wraps a bool as a Value.
func Bool(v bool) Value { return Value{Typ: TypeBool, B: v} }

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.Typ == TypeNull }

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
	switch v.Typ {
	case TypeInt:
		return float64(v.I)
	case TypeFloat:
		return v.F
	case TypeBool:
		if v.B {
			return 1
		}
		return 0
	case TypeText:
		f, err := strconv.ParseFloat(v.S, 64)
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
	switch v.Typ {
	case TypeInt:
		return v.I
	case TypeFloat:
		return int64(v.F)
	case TypeBool:
		if v.B {
			return 1
		}
		return 0
	case TypeText:
		i, err := strconv.ParseInt(v.S, 10, 64)
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
	switch v.Typ {
	case TypeBool:
		return v.B
	case TypeInt:
		return v.I != 0
	case TypeFloat:
		return v.F != 0
	case TypeText:
		return v.S == "true" || v.S == "t" || v.S == "1"
	default:
		return false
	}
}

// GoValue returns the value's native Go representation (nil, int64,
// float64, string or bool) — the inverse of FromGo for scan results.
func (v Value) GoValue() any {
	switch v.Typ {
	case TypeInt:
		return v.I
	case TypeFloat:
		return v.F
	case TypeText:
		return v.S
	case TypeBool:
		return v.B
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
	switch v.Typ {
	case TypeNull:
		return "NULL"
	case TypeInt:
		return strconv.FormatInt(v.I, 10)
	case TypeFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case TypeText:
		return v.S
	case TypeBool:
		if v.B {
			return "true"
		}
		return "false"
	default:
		return "?"
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
func Compare(a, b Value) int {
	ca, cb := typeClass(a.Typ), typeClass(b.Typ)
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
		af, bf := a.AsFloat(), b.AsFloat()
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		default:
			return 0
		}
	default:
		return strings.Compare(a.S, b.S)
	}
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
// index. Numerically equal int/float values hash identically.
func (v Value) Hash() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(b byte) { h = (h ^ uint64(b)) * prime64 }
	switch v.Typ {
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
		for i := 0; i < len(v.S); i++ {
			mix(v.S[i])
		}
	}
	return h
}

// EncodeValue appends a self-delimiting binary encoding of v to dst.
func EncodeValue(dst []byte, v Value) []byte {
	dst = append(dst, byte(v.Typ))
	switch v.Typ {
	case TypeNull:
		// The tag byte alone: NULL carries no payload.
	case TypeInt:
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], uint64(v.I))
		dst = append(dst, buf[:]...)
	case TypeFloat:
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v.F))
		dst = append(dst, buf[:]...)
	case TypeText:
		var buf [4]byte
		binary.LittleEndian.PutUint32(buf[:], uint32(len(v.S)))
		dst = append(dst, buf[:]...)
		dst = append(dst, v.S...)
	case TypeBool:
		if v.B {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
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

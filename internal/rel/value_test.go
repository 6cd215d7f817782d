package rel

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestValueConstructorsAndAccessors(t *testing.T) {
	if !Null().IsNull() {
		t.Fatal("Null() should be null")
	}
	if got := Int(7).AsFloat(); got != 7 {
		t.Fatalf("Int(7).AsFloat() = %v", got)
	}
	if got := Float(2.5).AsInt(); got != 2 {
		t.Fatalf("Float(2.5).AsInt() = %v", got)
	}
	if !Bool(true).AsBool() {
		t.Fatal("Bool(true).AsBool() = false")
	}
	if got := Text("42").AsInt(); got != 42 {
		t.Fatalf("Text(42).AsInt() = %v", got)
	}
	if got := Text("3.5").AsFloat(); got != 3.5 {
		t.Fatalf("Text(3.5).AsFloat() = %v", got)
	}
	if Text("xyz").AsFloat() != 0 {
		t.Fatal("non-numeric text should convert to 0")
	}
	if !Text("true").AsBool() || Text("no").AsBool() {
		t.Fatal("text bool conversion wrong")
	}
	if Bool(true).AsInt() != 1 || Bool(false).AsInt() != 0 {
		t.Fatal("bool int conversion wrong")
	}
	if Null().AsFloat() != 0 || Null().AsInt() != 0 || Null().AsBool() {
		t.Fatal("null conversions should be zero values")
	}
}

func TestValueString(t *testing.T) {
	cases := map[string]Value{
		"NULL":  Null(),
		"5":     Int(5),
		"2.5":   Float(2.5),
		"hi":    Text("hi"),
		"true":  Bool(true),
		"false": Bool(false),
	}
	for want, v := range cases {
		if got := v.String(); got != want {
			t.Errorf("%#v.String() = %q, want %q", v, got, want)
		}
	}
}

func TestTypeString(t *testing.T) {
	if TypeInt.String() != "BIGINT" || TypeText.String() != "TEXT" {
		t.Fatal("type names wrong")
	}
	if TypeNull.String() != "NULL" || TypeFloat.String() != "DOUBLE" || TypeBool.String() != "BOOLEAN" {
		t.Fatal("type names wrong")
	}
}

func TestCompareOrdering(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Int(1), Int(2), -1},
		{Int(2), Int(2), 0},
		{Int(3), Int(2), 1},
		{Float(1.5), Int(2), -1},
		{Int(2), Float(1.5), 1},
		{Float(2), Int(2), 0},
		{Null(), Int(0), -1},
		{Int(0), Null(), 1},
		{Null(), Null(), 0},
		{Text("a"), Text("b"), -1},
		{Text("b"), Text("b"), 0},
		{Bool(false), Bool(true), -1},
		{Bool(true), Bool(true), 0},
		{Bool(false), Int(1), -1}, // bool is numeric: 0 < 1
		// Exact at and beyond 2^53, where float64 stops holding every INT.
		{Int(1 << 53), Int(1<<53 + 1), -1},
		{Int(1<<53 + 1), Float(1 << 53), 1},
		{Float(1<<53 + 2), Int(1<<53 + 1), 1},
		{Int(math.MaxInt64), Float(0x1p63), -1},
		{Int(math.MinInt64), Float(-0x1p63), 0},
		{Int(math.MinInt64 + 1), Float(-0x1p63), 1},
		{Int(-2), Float(-1.5), -1},
		{Int(-1), Float(-1.5), 1},
		{Int(math.MinInt64), Float(math.Inf(-1)), 1},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// TestValueIs32Bytes pins the layout: one payload word, a string header and
// the type tag.
func TestValueIs32Bytes(t *testing.T) {
	if n := unsafe.Sizeof(Value{}); n != 32 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want 32", n)
	}
}

func TestEqualNullSemantics(t *testing.T) {
	if Equal(Null(), Null()) {
		t.Fatal("NULL = NULL must be false")
	}
	if Equal(Null(), Int(0)) || Equal(Int(0), Null()) {
		t.Fatal("NULL = x must be false")
	}
	if !Equal(Int(2), Float(2)) {
		t.Fatal("2 = 2.0 must hold")
	}
}

func TestHashEqualValuesAgree(t *testing.T) {
	if Int(7).Hash() != Float(7).Hash() {
		t.Fatal("numerically equal values must hash equal")
	}
	if Text("abc").Hash() == Text("abd").Hash() {
		t.Fatal("different strings should (almost surely) hash differently")
	}
}

func randValue(r *rand.Rand) Value {
	switch r.Intn(5) {
	case 0:
		return Null()
	case 1:
		return Int(r.Int63n(1e6) - 5e5)
	case 2:
		return Float(r.NormFloat64() * 100)
	case 3:
		buf := make([]byte, r.Intn(20))
		for i := range buf {
			buf[i] = byte('a' + r.Intn(26))
		}
		return Text(string(buf))
	default:
		return Bool(r.Intn(2) == 0)
	}
}

func TestEncodeDecodeValueRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		v := randValue(r)
		buf := EncodeValue(nil, v)
		got, n, err := DecodeValue(buf)
		if err != nil || n != len(buf) {
			return false
		}
		return reflect.DeepEqual(got, v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeValueErrors(t *testing.T) {
	if _, _, err := DecodeValue(nil); err == nil {
		t.Fatal("empty input should error")
	}
	if _, _, err := DecodeValue([]byte{byte(TypeInt), 1, 2}); err == nil {
		t.Fatal("short int should error")
	}
	if _, _, err := DecodeValue([]byte{byte(TypeFloat)}); err == nil {
		t.Fatal("short float should error")
	}
	if _, _, err := DecodeValue([]byte{byte(TypeText), 9, 0, 0, 0, 'a'}); err == nil {
		t.Fatal("short text payload should error")
	}
	if _, _, err := DecodeValue([]byte{byte(TypeBool)}); err == nil {
		t.Fatal("short bool should error")
	}
	if _, _, err := DecodeValue([]byte{99}); err == nil {
		t.Fatal("unknown tag should error")
	}
}

func TestEncodeDecodeRowRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		row := make(Row, r.Intn(12))
		for i := range row {
			row[i] = randValue(r)
		}
		buf := EncodeRow(nil, row)
		got, n, err := DecodeRow(buf)
		if err != nil || n != len(buf) {
			return false
		}
		if len(got) != len(row) {
			return false
		}
		for i := range row {
			if !reflect.DeepEqual(got[i], row[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRowErrors(t *testing.T) {
	if _, _, err := DecodeRow([]byte{1}); err == nil {
		t.Fatal("short header should error")
	}
	// arity says 2 but only one value present
	buf := EncodeRow(nil, Row{Int(1)})
	buf[0] = 2
	if _, _, err := DecodeRow(buf); err == nil {
		t.Fatal("truncated row should error")
	}
}

func TestCompareIsTotalOrderOnSamples(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	vals := make([]Value, 60)
	for i := range vals {
		vals[i] = randValue(r)
	}
	for _, a := range vals {
		if math.Abs(float64(Compare(a, a))) != 0 {
			t.Fatalf("Compare(%v,%v) != 0", a, a)
		}
		for _, b := range vals {
			if Compare(a, b) != -Compare(b, a) {
				t.Fatalf("antisymmetry violated for %v, %v", a, b)
			}
			for _, c := range vals {
				if Compare(a, b) <= 0 && Compare(b, c) <= 0 && Compare(a, c) > 0 {
					t.Fatalf("transitivity violated for %v %v %v", a, b, c)
				}
			}
		}
	}
}

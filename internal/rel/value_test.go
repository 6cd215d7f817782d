package rel

import (
	"bytes"
	"fmt"
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

// TestValueIs16Bytes pins the layout: a pointer and one payload word, and
// no == (a TEXT's identity is the address of its bytes).
func TestValueIs16Bytes(t *testing.T) {
	if n := unsafe.Sizeof(Value{}); n != 16 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want 16", n)
	}
	if reflect.TypeOf(Value{}).Comparable() {
		t.Fatal("Value is comparable; == on a TEXT would compare addresses")
	}
}

// TestValueLayoutContract checks every accessor at the edges of each type
// against outputs recorded with the 32-byte {s string; n uint64; typ Type}
// layout. AsInt of NaN and ±Inf is Go's float-to-int conversion, which the
// platform defines, so those rows hold that conversion instead of a literal.
func TestValueLayoutContract(t *testing.T) {
	long := "prefix-middle-suffix"
	cases := []struct {
		name    string
		v       Value
		typ     Type
		bits    uint64
		null    bool
		float   uint64 // math.Float64bits(AsFloat())
		asInt   int64
		asBool  bool
		str     string
		hash    uint64
		enc     string
		goValue string // fmt %T:%v of GoValue()
	}{
		{"null", Null(), TypeNull, 0x0, true, 0x0, 0, false, "NULL", 0xaf63bd4c8601b7df, "\x00", "<nil>:<nil>"},
		{"int min", Int(math.MinInt64), TypeInt, 0x8000000000000000, false, 0xc3e0000000000000, math.MinInt64, true, "-9223372036854775808", 0xaae7753229e7c18c, "\x01\x00\x00\x00\x00\x00\x00\x00\x80", "int64:-9223372036854775808"},
		{"int max", Int(math.MaxInt64), TypeInt, 0x7fffffffffffffff, false, 0x43e0000000000000, math.MaxInt64, true, "9223372036854775807", 0xaae7f53229e89b0c, "\x01\xff\xff\xff\xff\xff\xff\xff\x7f", "int64:9223372036854775807"},
		{"double +0", Float(0), TypeFloat, 0x0, false, 0x0, 0, false, "0", 0xa8c7f832281a39c5, "\x02\x00\x00\x00\x00\x00\x00\x00\x00", "float64:0"},
		{"double -0", Float(math.Copysign(0, -1)), TypeFloat, 0x8000000000000000, false, 0x8000000000000000, 0, false, "-0", 0xa8c7f832281a39c5, "\x02\x00\x00\x00\x00\x00\x00\x00\x80", "float64:-0"},
		{"double NaN", Float(math.NaN()), TypeFloat, 0x7ff8000000000001, false, 0x7ff8000000000001, int64(math.NaN()), true, "NaN", 0x8d1818291ff72671, "\x02\x01\x00\x00\x00\x00\x00\xf8\x7f", "float64:NaN"},
		{"double +Inf", Float(math.Inf(1)), TypeFloat, 0x7ff0000000000000, false, 0x7ff0000000000000, int64(math.Inf(1)), true, "+Inf", 0xaab1293229b9b0f8, "\x02\x00\x00\x00\x00\x00\x00\xf0\x7f", "float64:+Inf"},
		{"double -Inf", Float(math.Inf(-1)), TypeFloat, 0xfff0000000000000, false, 0xfff0000000000000, int64(math.Inf(-1)), true, "-Inf", 0xaab1a93229ba8a78, "\x02\x00\x00\x00\x00\x00\x00\xf0\xff", "float64:-Inf"},
		{"bool true", Bool(true), TypeBool, 0x1, false, 0x3ff0000000000000, 1, true, "true", 0xaab1693229ba1db8, "\x04\x01", "bool:true"},
		{"bool false", Bool(false), TypeBool, 0x0, false, 0x0, 0, false, "false", 0xa8c7f832281a39c5, "\x04\x00", "bool:false"},
		{"text empty", Text(""), TypeText, 0x0, false, 0x0, 0, false, "", 0xaf63b94c8601b113, "\x03\x00\x00\x00\x00", "string:"},
		{"text NUL", Text("a\x00b\x00"), TypeText, 0x0, false, 0x0, 0, false, "a\x00b\x00", 0xf930e472d7d0e20, "\x03\x04\x00\x00\x00a\x00b\x00", "string:a\x00b\x00"},
		{"text substring", Text(long[7:13]), TypeText, 0x0, false, 0x0, 0, false, "middle", 0x9b682afd3ad04f2e, "\x03\x06\x00\x00\x00middle", "string:middle"},
	}
	// What %#v prints for each case: the constructor call, not the fields.
	goStrings := map[string]string{
		"null":           `rel.Null()`,
		"int min":        `rel.Int(-9223372036854775808)`,
		"int max":        `rel.Int(9223372036854775807)`,
		"double +0":      `rel.Float(0)`,
		"double -0":      `rel.Float(math.Copysign(0, -1))`,
		"double NaN":     `rel.Float(math.NaN())`,
		"double +Inf":    `rel.Float(math.Inf(1))`,
		"double -Inf":    `rel.Float(math.Inf(-1))`,
		"bool true":      `rel.Bool(true)`,
		"bool false":     `rel.Bool(false)`,
		"text empty":     `rel.Text("")`,
		"text NUL":       `rel.Text("a\x00b\x00")`,
		"text substring": `rel.Text("middle")`,
	}
	for _, c := range cases {
		v := c.v
		if v.Type() != c.typ || v.Bits() != c.bits || v.IsNull() != c.null {
			t.Errorf("%s: Type %v Bits %#x IsNull %v, want %v %#x %v", c.name, v.Type(), v.Bits(), v.IsNull(), c.typ, c.bits, c.null)
		}
		if f := math.Float64bits(v.AsFloat()); f != c.float || v.AsInt() != c.asInt || v.AsBool() != c.asBool {
			t.Errorf("%s: AsFloat bits %#x AsInt %d AsBool %v, want %#x %d %v", c.name, f, v.AsInt(), v.AsBool(), c.float, c.asInt, c.asBool)
		}
		if v.String() != c.str || v.Hash() != c.hash {
			t.Errorf("%s: String %q Hash %#x, want %q %#x", c.name, v.String(), v.Hash(), c.str, c.hash)
		}
		if enc := string(EncodeValue(nil, v)); enc != c.enc {
			t.Errorf("%s: EncodeValue %q, want %q", c.name, enc, c.enc)
		}
		if g := v.GoValue(); fmt.Sprintf("%T:%v", g, g) != c.goValue {
			t.Errorf("%s: GoValue %T:%v, want %s", c.name, g, g, c.goValue)
		}
		if g := fmt.Sprintf("%#v", v); g != goStrings[c.name] {
			t.Errorf("%s: %%#v is %s, want %s", c.name, g, goStrings[c.name])
		}
	}
	if g, want := fmt.Sprintf("%#v", Row{Int(1), Null(), Text("x")}), `rel.Row{rel.Int(1), rel.Null(), rel.Text("x")}`; g != want {
		t.Errorf("%%#v of a row is %s, want %s", g, want)
	}
	if g, want := Float(1.5).GoString()+" "+Float(math.Float64frombits(0x7ff8000000000002)).GoString(), "rel.Float(1.5) rel.Float(math.Float64frombits(0x7ff8000000000002))"; g != want {
		t.Errorf("GoString is %s, want %s", g, want)
	}

	// An empty TEXT is a value, not NULL.
	if e := Text(""); e.IsNull() || e.Type() != TypeText || Equal(e, Null()) || Compare(e, Null()) != 1 {
		t.Fatalf("Text(\"\") is %v, IsNull %v; want an empty TEXT", e.Type(), e.IsNull())
	}
	// Text copies nothing, but string(b) does: overwriting b leaves the
	// value's bytes alone.
	b := []byte("mutable")
	v := Text(string(b))
	copy(b, "XXXXXXX")
	if v.String() != "mutable" || v.Hash() != Text("mutable").Hash() {
		t.Fatalf("Text(string(b)) = %q after b was overwritten, want %q", v.String(), "mutable")
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
		// A Value is incomparable: its encoding holds its type and content.
		return bytes.Equal(EncodeValue(nil, got), buf)
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
			if !bytes.Equal(EncodeValue(nil, got[i]), EncodeValue(nil, row[i])) {
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

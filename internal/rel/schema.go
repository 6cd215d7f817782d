package rel

import (
	"fmt"
	"strings"
)

// Column describes one attribute of a relation.
type Column struct {
	Name    string
	Typ     Type
	Unique  bool // unique / primary-key constraint; PREDICT TRAIN ON * skips these
	NotNull bool
}

// Schema is an ordered list of columns.
type Schema struct {
	Cols []Column
}

// NewSchema builds a schema from columns.
func NewSchema(cols ...Column) *Schema { return &Schema{Cols: cols} }

// Arity returns the number of columns.
func (s *Schema) Arity() int { return len(s.Cols) }

// ColIndex returns the index of the named column, or -1.
func (s *Schema) ColIndex(name string) int {
	for i, c := range s.Cols {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// Col returns the column at index i.
func (s *Schema) Col(i int) Column { return s.Cols[i] }

// Names returns the column names in order.
func (s *Schema) Names() []string {
	out := make([]string, len(s.Cols))
	for i, c := range s.Cols {
		out[i] = c.Name
	}
	return out
}

// String renders the schema as "(a BIGINT, b TEXT)".
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, c := range s.Cols {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %s", c.Name, c.Typ)
	}
	b.WriteByte(')')
	return b.String()
}

// Row is a tuple of values, positionally matching a Schema.
type Row []Value

// Clone returns a copy of the row.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// String renders the row as a comma-separated list.
func (r Row) String() string {
	parts := make([]string, len(r))
	for i, v := range r {
		parts[i] = v.String()
	}
	return strings.Join(parts, ", ")
}

// EncodeRow appends the binary encoding of a row to dst.
func EncodeRow(dst []byte, r Row) []byte {
	var hdr [4]byte
	hdr[0] = byte(len(r))
	hdr[1] = byte(len(r) >> 8)
	hdr[2] = byte(len(r) >> 16)
	hdr[3] = byte(len(r) >> 24)
	dst = append(dst, hdr[:]...)
	for _, v := range r {
		dst = EncodeValue(dst, v)
	}
	return dst
}

// DecodeRow decodes a row produced by EncodeRow, returning the row and the
// number of bytes consumed.
func DecodeRow(src []byte) (Row, int, error) {
	if len(src) < 4 {
		return nil, 0, fmt.Errorf("rel: decode row: short header")
	}
	n := int(src[0]) | int(src[1])<<8 | int(src[2])<<16 | int(src[3])<<24
	if n < 0 || n > 1<<20 {
		return nil, 0, fmt.Errorf("rel: decode row: bad arity %d", n)
	}
	off := 4
	row := make(Row, n)
	for i := 0; i < n; i++ {
		v, used, err := DecodeValue(src[off:])
		if err != nil {
			return nil, 0, fmt.Errorf("rel: decode row col %d: %w", i, err)
		}
		row[i] = v
		off += used
	}
	return row, off, nil
}

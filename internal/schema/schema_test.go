package schema

import (
	"strings"
	"testing"

	"myriad/internal/value"
)

func studentSchema() *Schema {
	return &Schema{
		Table: "student",
		Columns: []Column{
			{Name: "id", Type: TInt, NotNull: true},
			{Name: "name", Type: TText, NotNull: true},
			{Name: "gpa", Type: TFloat},
			{Name: "active", Type: TBool},
		},
		Key: []string{"id"},
	}
}

func TestParseType(t *testing.T) {
	cases := map[string]Type{
		"INT": TInt, "integer": TInt, "NUMBER": TInt, "bigint": TInt,
		"FLOAT": TFloat, "real": TFloat, "NUMERIC": TFloat, "binary_float": TFloat,
		"TEXT": TText, "VARCHAR": TText, "varchar2": TText, "CLOB": TText,
		"BOOL": TBool, "Boolean": TBool,
	}
	for name, want := range cases {
		got, err := ParseType(name)
		if err != nil || got != want {
			t.Errorf("ParseType(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseType("BLOB"); err == nil {
		t.Error("ParseType(BLOB) should fail")
	}
}

func TestTypeKind(t *testing.T) {
	if TInt.Kind() != value.KindInt || TFloat.Kind() != value.KindFloat ||
		TText.Kind() != value.KindText || TBool.Kind() != value.KindBool {
		t.Error("Type.Kind mapping wrong")
	}
}

func TestColIndexAndKeyIndexes(t *testing.T) {
	s := studentSchema()
	if s.ColIndex("GPA") != 2 {
		t.Error("case-insensitive ColIndex failed")
	}
	if s.ColIndex("nope") != -1 {
		t.Error("missing column should be -1")
	}
	if ki := s.KeyIndexes(); len(ki) != 1 || ki[0] != 0 {
		t.Errorf("KeyIndexes = %v", ki)
	}
	s2 := &Schema{Table: "t", Columns: []Column{{Name: "a", Type: TInt}}}
	if s2.KeyIndexes() != nil {
		t.Error("keyless schema should have nil KeyIndexes")
	}
}

func TestValidate(t *testing.T) {
	if err := studentSchema().Validate(); err != nil {
		t.Errorf("valid schema rejected: %v", err)
	}
	bad := []*Schema{
		{Table: "", Columns: []Column{{Name: "a", Type: TInt}}},
		{Table: "t"},
		{Table: "t", Columns: []Column{{Name: "", Type: TInt}}},
		{Table: "t", Columns: []Column{{Name: "a", Type: TInt}, {Name: "A", Type: TInt}}},
		{Table: "t", Columns: []Column{{Name: "a", Type: TInt}}, Key: []string{"b"}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad schema %d accepted", i)
		}
	}
}

func TestSchemaClone(t *testing.T) {
	s := studentSchema()
	c := s.Clone()
	c.Columns[0].Name = "modified"
	c.Key[0] = "modified"
	if s.Columns[0].Name != "id" || s.Key[0] != "id" {
		t.Error("Clone shares backing arrays")
	}
}

func TestSchemaString(t *testing.T) {
	got := studentSchema().String()
	for _, want := range []string{"student(", "id INTEGER NOT NULL", "gpa FLOAT", "PRIMARY KEY (id)"} {
		if !strings.Contains(got, want) {
			t.Errorf("String() = %q missing %q", got, want)
		}
	}
}

func TestCoerceRow(t *testing.T) {
	s := studentSchema()
	row, err := CoerceRow(s, Row{
		value.NewText("7"), value.NewText("ann"), value.NewInt(3), value.NewText("true"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if row[0].K != value.KindInt || row[0].RawInt() != 7 {
		t.Errorf("id coercion: %v", row[0])
	}
	if row[2].K != value.KindFloat || row[2].RawFloat() != 3 {
		t.Errorf("gpa coercion: %v", row[2])
	}
	if row[3].K != value.KindBool || !row[3].RawBool() {
		t.Errorf("bool coercion: %v", row[3])
	}

	// NULL in NOT NULL column.
	if _, err := CoerceRow(s, Row{value.Null(), value.NewText("x"), value.Null(), value.Null()}); err == nil {
		t.Error("NULL in NOT NULL column accepted")
	}
	// Arity mismatch.
	if _, err := CoerceRow(s, Row{value.NewInt(1)}); err == nil {
		t.Error("short row accepted")
	}
	// Unconvertible value.
	if _, err := CoerceRow(s, Row{value.NewText("abc"), value.NewText("x"), value.Null(), value.Null()}); err == nil {
		t.Error("text 'abc' into INTEGER accepted")
	}
}

func TestCoerceBoolForms(t *testing.T) {
	for _, s := range []string{"true", "T", "YES", "1"} {
		v, err := Coerce(value.NewText(s), TBool)
		if err != nil || !v.RawBool() {
			t.Errorf("Coerce(%q) = %v, %v", s, v, err)
		}
	}
	for _, s := range []string{"false", "F", "no", "0"} {
		v, err := Coerce(value.NewText(s), TBool)
		if err != nil || v.RawBool() {
			t.Errorf("Coerce(%q) = %v, %v", s, v, err)
		}
	}
	if _, err := Coerce(value.NewText("maybe"), TBool); err == nil {
		t.Error("Coerce('maybe') accepted")
	}
}

func TestResultSet(t *testing.T) {
	rs := &ResultSet{
		Columns: []string{"a", "b"},
		Rows: []Row{
			{value.NewInt(1), value.NewText("x")},
			{value.NewInt(2), value.Null()},
		},
	}
	if rs.ColIndex("B") != 1 || rs.ColIndex("z") != -1 {
		t.Error("ResultSet.ColIndex")
	}
	out := rs.String()
	for _, want := range []string{"a", "b", "1", "x", "NULL", "(2 rows)"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestRowClone(t *testing.T) {
	r := Row{value.NewInt(1)}
	c := r.Clone()
	c[0] = value.NewInt(2)
	if r[0].RawInt() != 1 {
		t.Error("Row.Clone aliases storage")
	}
}

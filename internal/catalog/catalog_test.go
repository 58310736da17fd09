package catalog

import (
	"strings"
	"testing"

	"myriad/internal/integration"
	"myriad/internal/schema"
)

func exportSchemas() map[string]map[string]*schema.Schema {
	st := &schema.Schema{
		Table: "STUDENT",
		Columns: []schema.Column{
			{Name: "id", Type: schema.TInt},
			{Name: "name", Type: schema.TText},
		},
		Key: []string{"id"},
	}
	return map[string]map[string]*schema.Schema{
		"east": {"student": st},
		"west": {"student": st},
	}
}

func validDef() *IntegratedDef {
	return &IntegratedDef{
		Name: "ALL_STUDENTS",
		Columns: []schema.Column{
			{Name: "id", Type: schema.TInt},
			{Name: "name", Type: schema.TText},
		},
		Key:     []string{"id"},
		Combine: integration.UnionAll,
		Sources: []SourceDef{
			{Site: "east", Export: "STUDENT", ColumnMap: map[string]string{"id": "id", "name": "name"}},
			{Site: "west", Export: "STUDENT", ColumnMap: map[string]string{"id": "id", "name": "name"}},
		},
	}
}

func TestValidateAccepts(t *testing.T) {
	if err := validDef().Validate(exportSchemas()); err != nil {
		t.Fatalf("valid def rejected: %v", err)
	}
}

func TestValidateRejects(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*IntegratedDef)
	}{
		{"empty name", func(d *IntegratedDef) { d.Name = "" }},
		{"no columns", func(d *IntegratedDef) { d.Columns = nil }},
		{"no sources", func(d *IntegratedDef) { d.Sources = nil }},
		{"bad key", func(d *IntegratedDef) { d.Key = []string{"ghost"} }},
		{"merge without key", func(d *IntegratedDef) { d.Combine = integration.MergeOuter; d.Key = nil }},
		{"unknown site", func(d *IntegratedDef) { d.Sources[0].Site = "mars" }},
		{"unknown export", func(d *IntegratedDef) { d.Sources[0].Export = "GHOST" }},
		{"map to unknown column", func(d *IntegratedDef) { d.Sources[0].ColumnMap["ghost"] = "id" }},
		{"resolver for unknown column", func(d *IntegratedDef) { d.Resolvers = map[string]string{"ghost": "first"} }},
		{"unknown resolver fn", func(d *IntegratedDef) { d.Resolvers = map[string]string{"name": "nope_fn"} }},
		{"merge source missing key map", func(d *IntegratedDef) {
			d.Combine = integration.MergeOuter
			delete(d.Sources[1].ColumnMap, "id")
		}},
	}
	for _, m := range mutations {
		d := validDef()
		m.mut(d)
		if err := d.Validate(exportSchemas()); err == nil {
			t.Errorf("%s: accepted", m.name)
		}
	}
}

func TestDefSchemaAndColIndex(t *testing.T) {
	d := validDef()
	sc := d.Schema()
	if sc.Table != "ALL_STUDENTS" || len(sc.Columns) != 2 || sc.Key[0] != "id" {
		t.Errorf("Schema(): %v", sc)
	}
	if d.ColIndex("NAME") != 1 || d.ColIndex("nope") != -1 {
		t.Error("ColIndex")
	}
}

func TestSourceMapped(t *testing.T) {
	d := validDef()
	d.Sources[0].ColumnMap = map[string]string{"Id": "id + 1", "name": "name"}
	d.Sources[0].Filter = "id > 3"
	if err := d.Validate(exportSchemas()); err != nil {
		t.Fatal(err)
	}
	s := &d.Sources[0]
	if e, ok := s.Mapped("ID"); !ok || e.String() != "id + 1" {
		t.Errorf("Mapped: %v %v", e, ok)
	}
	if _, ok := s.Mapped("nope"); ok {
		t.Error("Mapped found missing key")
	}
	if f := s.FilterExpr(); f == nil || f.String() != "id > 3" {
		t.Errorf("FilterExpr: %v", f)
	}
	if d.Sources[1].FilterExpr() != nil {
		t.Error("FilterExpr without a Filter")
	}
}

// TestValidateRejectsBadExpressions: a mapping or filter that does not
// parse, or that names a column the export lacks, fails at Define
// rather than at the first query.
func TestValidateRejectsBadExpressions(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*IntegratedDef)
		want string
	}{
		{"malformed mapping", func(d *IntegratedDef) { d.Sources[0].ColumnMap["name"] = "name +" }, "column name"},
		{"mapping names a missing column", func(d *IntegratedDef) { d.Sources[1].ColumnMap["name"] = "UPPER(nickname)" }, `no column "nickname"`},
		{"malformed filter", func(d *IntegratedDef) { d.Sources[0].Filter = "id >" }, "filter"},
		{"filter names a missing column", func(d *IntegratedDef) { d.Sources[1].Filter = "gpa > 3" }, `no column "gpa"`},
	}
	for _, m := range mutations {
		d := validDef()
		m.mut(d)
		err := d.Validate(exportSchemas())
		if err == nil {
			t.Errorf("%s: accepted", m.name)
			continue
		}
		if !strings.Contains(err.Error(), m.want) {
			t.Errorf("%s: error %q does not mention %q", m.name, err, m.want)
		}
		c := New("fed")
		st := exportSchemas()["east"]["student"]
		c.SetSiteExports("east", []*schema.Schema{st})
		c.SetSiteExports("west", []*schema.Schema{st})
		if err := c.Define(d); err == nil {
			t.Errorf("%s: Define accepted", m.name)
		}
	}
}

func TestVersionCountsPlanChanges(t *testing.T) {
	c := New("fed")
	st := exportSchemas()["east"]["student"]
	v0 := c.Version()
	c.SetSiteExports("east", []*schema.Schema{st})
	c.SetSiteExports("west", []*schema.Schema{st})
	if c.Version() != v0+2 {
		t.Fatalf("SetSiteExports: version %d, want %d", c.Version(), v0+2)
	}
	if err := c.Define(validDef()); err != nil {
		t.Fatal(err)
	}
	if c.Version() != v0+3 {
		t.Fatalf("Define: version %d, want %d", c.Version(), v0+3)
	}
	bad := validDef()
	bad.Name = ""
	if c.Define(bad) == nil || c.Version() != v0+3 {
		t.Fatalf("a rejected Define moved the version to %d", c.Version())
	}
	c.SetFragmentStats("east", "STUDENT", nil)
	if err := c.Drop("ALL_STUDENTS"); err != nil || c.Version() != v0+4 {
		t.Fatalf("Drop: version %d, want %d (err %v)", c.Version(), v0+4, err)
	}
}

func TestCatalogLifecycle(t *testing.T) {
	c := New("fed1")
	if c.Federation() != "fed1" {
		t.Error("federation name")
	}
	st := exportSchemas()["east"]["student"]
	c.SetSiteExports("East", []*schema.Schema{st})
	c.SetSiteExports("west", []*schema.Schema{st})

	if got := c.Sites(); len(got) != 2 || got[0] != "east" {
		t.Errorf("Sites: %v", got)
	}
	if _, ok := c.ExportSchema("EAST", "Student"); !ok {
		t.Error("case-insensitive export lookup failed")
	}
	if _, ok := c.ExportSchema("mars", "student"); ok {
		t.Error("unknown site export found")
	}
	if exps := c.SiteExports("east"); len(exps) != 1 {
		t.Errorf("SiteExports: %v", exps)
	}

	if err := c.Define(validDef()); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Integrated("all_students"); !ok {
		t.Error("integrated lookup failed")
	}
	if names := c.IntegratedNames(); len(names) != 1 || names[0] != "all_students" {
		t.Errorf("names: %v", names)
	}
	if err := c.Drop("ALL_STUDENTS"); err != nil {
		t.Fatal(err)
	}
	if err := c.Drop("ALL_STUDENTS"); err == nil {
		t.Error("double drop accepted")
	}

	// Define must fail against a catalog missing the sites.
	empty := New("fed2")
	if err := empty.Define(validDef()); err == nil {
		t.Error("define with unknown sites accepted")
	}
}

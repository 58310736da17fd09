// Package catalog holds the federation's metadata: the component sites
// it spans, their export relation schemas, and the integrated relation
// definitions that map federation-visible relations onto per-site export
// relations. A MYRIAD deployment may run multiple federations; each has
// its own Catalog.
package catalog

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"myriad/internal/integration"
	"myriad/internal/schema"
	"myriad/internal/sqlparser"
	"myriad/internal/storage"
)

// SourceDef maps an integrated relation onto one export relation at one
// site.
type SourceDef struct {
	Site   string
	Export string
	// ColumnMap maps each integrated column name to a canonical SQL
	// expression over the export's columns (usually a bare column name,
	// optionally a derived expression such as "salary * 12"). Integrated
	// columns absent from the map contribute NULL from this source.
	ColumnMap map[string]string
	// Filter optionally restricts the rows this source contributes, as
	// a canonical SQL predicate over the export's columns.
	Filter string

	// mapped and filter are ColumnMap (keyed by lower-cased integrated
	// column) and Filter parsed once, by Validate.
	mapped map[string]sqlparser.Expr
	filter sqlparser.Expr
}

// IntegratedDef defines one integrated relation.
type IntegratedDef struct {
	Name    string
	Columns []schema.Column
	// Key lists the integrated key columns (required for MergeOuter;
	// advisory otherwise).
	Key     []string
	Combine integration.CombineKind
	Sources []SourceDef
	// Resolvers names the integration function per integrated column
	// for MergeOuter conflict resolution (default "coalesce").
	Resolvers map[string]string
}

// Schema returns the federation-visible schema of the relation.
func (d *IntegratedDef) Schema() *schema.Schema {
	return &schema.Schema{Table: d.Name, Columns: append([]schema.Column(nil), d.Columns...), Key: append([]string(nil), d.Key...)}
}

// ColIndex locates an integrated column by name.
func (d *IntegratedDef) ColIndex(name string) int {
	for i, c := range d.Columns {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// Validate checks the definition against the known export schemas
// (keyed "site" -> export name -> schema).
func (d *IntegratedDef) Validate(exports map[string]map[string]*schema.Schema) error {
	if d.Name == "" {
		return fmt.Errorf("catalog: integrated relation needs a name")
	}
	if len(d.Columns) == 0 {
		return fmt.Errorf("catalog %s: no columns", d.Name)
	}
	if len(d.Sources) == 0 {
		return fmt.Errorf("catalog %s: no sources", d.Name)
	}
	for _, k := range d.Key {
		if d.ColIndex(k) < 0 {
			return fmt.Errorf("catalog %s: key column %q not in schema", d.Name, k)
		}
	}
	if d.Combine == integration.MergeOuter && len(d.Key) == 0 {
		return fmt.Errorf("catalog %s: OUTERJOIN-MERGE requires a key", d.Name)
	}
	for col, fname := range d.Resolvers {
		if d.ColIndex(col) < 0 {
			return fmt.Errorf("catalog %s: resolver for unknown column %q", d.Name, col)
		}
		if _, ok := integration.Lookup(fname); !ok {
			return fmt.Errorf("catalog %s: unknown integration function %q", d.Name, fname)
		}
	}
	for i := range d.Sources {
		s := &d.Sources[i]
		siteExports, ok := exports[strings.ToLower(s.Site)]
		if !ok {
			return fmt.Errorf("catalog %s: unknown site %q", d.Name, s.Site)
		}
		esc, ok := siteExports[strings.ToLower(s.Export)]
		if !ok {
			return fmt.Errorf("catalog %s: site %s has no export %q", d.Name, s.Site, s.Export)
		}
		mapped := make(map[string]sqlparser.Expr, len(s.ColumnMap))
		for col, src := range s.ColumnMap {
			if d.ColIndex(col) < 0 {
				return fmt.Errorf("catalog %s: source %s.%s maps unknown column %q", d.Name, s.Site, s.Export, col)
			}
			e, err := parseOverExport(src, esc)
			if err != nil {
				return fmt.Errorf("catalog %s: source %s.%s column %s: %w", d.Name, s.Site, s.Export, col, err)
			}
			mapped[strings.ToLower(col)] = e
		}
		var filter sqlparser.Expr
		if s.Filter != "" {
			var err error
			if filter, err = parseOverExport(s.Filter, esc); err != nil {
				return fmt.Errorf("catalog %s: source %s.%s filter: %w", d.Name, s.Site, s.Export, err)
			}
		}
		// Key columns must be supplied by every source for MergeOuter.
		if d.Combine == integration.MergeOuter {
			for _, k := range d.Key {
				if _, ok := mapped[strings.ToLower(k)]; !ok {
					return fmt.Errorf("catalog %s: source %s.%s does not map key column %q", d.Name, s.Site, s.Export, k)
				}
			}
		}
		s.mapped, s.filter = mapped, filter
	}
	return nil
}

// parseOverExport parses a mapping or filter expression and checks that
// every column it names is a column of the export.
func parseOverExport(src string, esc *schema.Schema) (sqlparser.Expr, error) {
	e, err := sqlparser.ParseExpr(src)
	if err != nil {
		return nil, err
	}
	for _, cr := range sqlparser.ColumnsIn(e) {
		if esc.ColIndex(cr.Column) < 0 {
			return nil, fmt.Errorf("export %s has no column %q", esc.Table, cr.Column)
		}
	}
	return e, nil
}

// Mapped returns the parsed ColumnMap expression for an integrated
// column (case-insensitive), as Validate parsed it. The expression is
// shared: callers must not modify it.
func (s *SourceDef) Mapped(col string) (sqlparser.Expr, bool) {
	e, ok := s.mapped[strings.ToLower(col)]
	return e, ok
}

// FilterExpr returns the parsed Filter (nil without one), as Validate
// parsed it. The expression is shared: callers must not modify it.
func (s *SourceDef) FilterExpr() sqlparser.Expr { return s.filter }

// Catalog is one federation's metadata store. It is safe for concurrent
// use.
type Catalog struct {
	mu         sync.RWMutex
	version    atomic.Uint64 // see Version
	federation string
	exports    map[string]map[string]*schema.Schema // site -> export -> schema
	integrated map[string]*IntegratedDef
	fragStats  map[string]*storage.TableStats // "site/export" -> fragment stats
}

// New creates an empty catalog for the named federation.
func New(federation string) *Catalog {
	return &Catalog{
		federation: federation,
		exports:    make(map[string]map[string]*schema.Schema),
		integrated: make(map[string]*IntegratedDef),
		fragStats:  make(map[string]*storage.TableStats),
	}
}

// Federation returns the owning federation's name.
func (c *Catalog) Federation() string { return c.federation }

// SetSiteExports records (replacing) the export schemas of a site.
func (c *Catalog) SetSiteExports(site string, schemas []*schema.Schema) {
	m := make(map[string]*schema.Schema, len(schemas))
	for _, sc := range schemas {
		m[strings.ToLower(sc.Table)] = sc
	}
	c.mu.Lock()
	c.exports[strings.ToLower(site)] = m
	c.version.Add(1)
	c.mu.Unlock()
}

// Version counts the changes that can change a plan: every Define, Drop
// and SetSiteExports bumps it, so a cache of planning work keyed by it
// never serves a plan built against an older catalog. Fragment
// statistics do not bump it.
func (c *Catalog) Version() uint64 { return c.version.Load() }

// Sites lists known sites, sorted.
func (c *Catalog) Sites() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.exports))
	for s := range c.exports {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// ExportSchema looks up one export relation's schema.
func (c *Catalog) ExportSchema(site, export string) (*schema.Schema, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	m, ok := c.exports[strings.ToLower(site)]
	if !ok {
		return nil, false
	}
	sc, ok := m[strings.ToLower(export)]
	return sc, ok
}

// SiteExports lists the export schemas of a site, sorted by name.
func (c *Catalog) SiteExports(site string) []*schema.Schema {
	c.mu.RLock()
	defer c.mu.RUnlock()
	m := c.exports[strings.ToLower(site)]
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]*schema.Schema, 0, len(names))
	for _, n := range names {
		out = append(out, m[n])
	}
	return out
}

// Define validates and installs (or replaces) an integrated relation.
func (c *Catalog) Define(def *IntegratedDef) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := def.Validate(c.exports); err != nil {
		return err
	}
	c.integrated[strings.ToLower(def.Name)] = def
	c.version.Add(1)
	return nil
}

// Drop removes an integrated relation definition.
func (c *Catalog) Drop(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	lc := strings.ToLower(name)
	if _, ok := c.integrated[lc]; !ok {
		return fmt.Errorf("catalog: no integrated relation %q", name)
	}
	delete(c.integrated, lc)
	c.version.Add(1)
	return nil
}

// SetFragmentStats records (or, with nil, clears) per-fragment
// statistics for one export relation at one site. The planner consults
// these ahead of its StatsProvider for cardinality estimates and source
// selection, so administratively registered fragment metadata (an
// archive site known empty, a shard with a fixed key range) steers
// planning without a round trip to the site.
func (c *Catalog) SetFragmentStats(site, export string, ts *storage.TableStats) {
	key := strings.ToLower(site) + "/" + strings.ToLower(export)
	c.mu.Lock()
	defer c.mu.Unlock()
	if ts == nil {
		delete(c.fragStats, key)
		return
	}
	c.fragStats[key] = ts
}

// FragmentStats looks up registered fragment statistics.
func (c *Catalog) FragmentStats(site, export string) (*storage.TableStats, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	ts, ok := c.fragStats[strings.ToLower(site)+"/"+strings.ToLower(export)]
	return ts, ok
}

// Integrated looks up an integrated relation definition.
func (c *Catalog) Integrated(name string) (*IntegratedDef, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	def, ok := c.integrated[strings.ToLower(name)]
	return def, ok
}

// IntegratedNames lists defined integrated relations, sorted.
func (c *Catalog) IntegratedNames() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.integrated))
	for n := range c.integrated {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

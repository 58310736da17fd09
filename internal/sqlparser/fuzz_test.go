package sqlparser

import "testing"

// parseSeeds is the statement inventory exercised by the unit tests,
// the seed corpus of FuzzParse and FuzzShapeBind.
var parseSeeds = []string{
	`SELECT 1`,
	`SELECT 1 + 2 * 3`,
	`SELECT * FROM t`,
	`SELECT t.* FROM t`,
	`SELECT a, b AS bee FROM t`,
	`SELECT DISTINCT a FROM t`,
	`SELECT a FROM t WHERE x = 1 AND y <> 2 OR NOT z`,
	`SELECT a FROM t WHERE s LIKE 'a%' AND n IN (1, 2, 3)`,
	`SELECT a FROM t WHERE n NOT IN (1) AND m BETWEEN 1 AND 10`,
	`SELECT a FROM t WHERE x IS NULL AND y IS NOT NULL`,
	`SELECT a FROM t1, t2 WHERE t1.x = t2.y`,
	`SELECT a FROM t1 JOIN t2 ON t1.x = t2.y`,
	`SELECT a FROM t1 LEFT JOIN t2 ON t1.x = t2.y`,
	`SELECT a, COUNT(*) FROM t GROUP BY a HAVING COUNT(*) > 1`,
	`SELECT COUNT(DISTINCT a) FROM t`,
	`SELECT a FROM t ORDER BY a DESC, b LIMIT 10 OFFSET 5`,
	`SELECT a FROM t UNION SELECT b FROM u`,
	`SELECT a FROM t UNION ALL SELECT b FROM u`,
	`SELECT CASE WHEN a > 1 THEN 'big' ELSE 'small' END FROM t`,
	`SELECT UPPER(name) || '!' FROM t`,
	`SELECT -a, -(a + b) FROM t`,
	`SELECT a FROM t WHERE (a + 1) * 2 > 10`,
	`SELECT a FROM t OFFSET 5 ROWS FETCH FIRST 10 ROWS ONLY`,
	`SELECT "Weird Name" FROM "TABLE"`,
	`SELECT 42, -7, 2.5, 1e3, 'it''s', NULL, TRUE, FALSE`,
	`INSERT INTO t VALUES (1, 'x')`,
	`INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')`,
	`UPDATE t SET a = a + 1 WHERE id = 3`,
	`UPDATE t SET a = 1, b = 'z'`,
	`DELETE FROM t`,
	`DELETE FROM t WHERE a < 5`,
	`CREATE TABLE t (id INTEGER NOT NULL, name TEXT, PRIMARY KEY (id))`,
	`DROP TABLE t`,
	`CREATE INDEX idx ON t (name)`,
	`CREATE ORDERED INDEX idx ON t (name)`,
	`BEGIN`,
	`COMMIT`,
	`ROLLBACK`,
}

// FuzzParse checks the parser/printer round-trip invariant on arbitrary
// input: anything that parses must format to canonical SQL that
// re-parses to an equivalent AST, where equivalence is witnessed by the
// canonical formatting reaching a fixpoint after one iteration. The
// seed corpus is parseSeeds.
func FuzzParse(f *testing.F) {
	for _, s := range parseSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		stmt, err := Parse(sql)
		if err != nil {
			return // invalid input is fine; crashing or hanging is not
		}
		once := FormatStatement(stmt, nil)
		stmt2, err := Parse(once)
		if err != nil {
			t.Fatalf("canonical form does not re-parse\n input: %q\noutput: %q\n   err: %v", sql, once, err)
		}
		twice := FormatStatement(stmt2, nil)
		if once != twice {
			t.Fatalf("printer not a fixpoint\n input: %q\n  once: %q\n twice: %q", sql, once, twice)
		}
	})
}

// Command ravensql executes a SQL script against a Raven engine preloaded
// with the paper's demo workloads and stored models, printing query
// results. It is the closest thing to the live demo the paper promises.
//
// Usage:
//
//	ravensql [-rows N] [-file script.sql] [-parallelism N]
//	         [-timeout D] [-result-cache-bytes N]
//	echo "SELECT COUNT(*) AS n FROM patient_info" | ravensql
//
// The script is cut into statements where the engine's own scanner
// (sql.SplitStatements) sees a boundary, so a `;` inside a string
// literal or a comment ends nothing. Statements run in groups: each
// SELECT together with the DDL, INSERTs and DECLAREs before it, as one
// query script — a DECLARE binds only within its own script — and the
// statements after the last SELECT through DB.Exec, which refuses a
// DECLARE that no SELECT follows.
//
// Queries run through the streaming serving API (QueryContext): rows print
// as they arrive and -timeout bounds each SELECT group with a context
// deadline, cancelling mid-scan instead of materializing a doomed result
// (a group without a SELECT is not bounded — DB.Exec takes no context).
//
// Lines starting with a backslash are meta commands, processed in script
// order between statements:
//
//	\cache on|off   toggle the semantic result cache for following queries
//	\cache          print the toggle state and the cache's counters
//
// The engine's result cache is built with -result-cache-bytes (default
// 64MB) but starts toggled off, so scripts behave exactly as before
// until a \cache on line opts in; repeated SELECT/PREDICT queries after
// it are served from cache until DDL, INSERT or a model store
// invalidates them.
//
// Preloaded: hospital tables (patient_info, blood_tests, prenatal_tests)
// with a stored decision-tree model 'duration_of_stay', and the
// flights_features table with an L1-sparse model 'flight_delay'.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"raven"
	"raven/internal/data"
	"raven/internal/ml"
	"raven/internal/sql"
	"raven/internal/train"
)

func main() {
	rows := flag.Int("rows", 100000, "rows per generated table")
	file := flag.String("file", "", "SQL script file ('-' or empty reads stdin)")
	explain := flag.Bool("explain", false, "print plans instead of executing")
	parallelism := flag.Int("parallelism", 0, "degree of parallelism for query execution (0 = GOMAXPROCS, 1 = serial)")
	timeout := flag.Duration("timeout", 0, "per-query deadline for SELECTs (0 = none), e.g. 500ms or 30s; DDL/INSERT statements are not bounded")
	cacheBytes := flag.Int64("result-cache-bytes", 64<<20, "semantic result cache budget in bytes; the cache starts toggled off — enable it with a \\cache on meta line (0 = never built)")
	dataDir := flag.String("data-dir", "", "durable data directory: writes are WAL-logged and recovered on restart; preload is skipped when the directory already holds the demo tables (empty = in-memory)")
	fsync := flag.String("fsync", "always", "WAL fsync policy for -data-dir: always, interval or off")
	segmentRows := flag.Int("segment-rows", 0, "rows per sealed on-disk segment for -data-dir (0 = default 65536)")
	flag.Parse()

	db, err := setup(*rows, *parallelism, *cacheBytes, *dataDir, *fsync, *segmentRows)
	if err != nil {
		fmt.Fprintln(os.Stderr, "setup:", err)
		os.Exit(1)
	}
	defer func() {
		if err := db.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "close:", err)
		}
	}()

	var script []byte
	if *file == "" || *file == "-" {
		script, err = io.ReadAll(os.Stdin)
	} else {
		script, err = os.ReadFile(*file)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "read:", err)
		os.Exit(1)
	}

	if err := runScript(os.Stdout, db, string(script), *explain, *timeout, *cacheBytes); err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}

// runScript runs a script's statement groups and meta lines in order,
// printing to w, and stops at the first error.
func runScript(w io.Writer, db *raven.DB, script string, explain bool, timeout time.Duration, cacheBytes int64) error {
	// The cache starts off so existing scripts behave identically; the
	// \cache meta command flips it mid-script.
	cacheOn := false
	for _, item := range splitScript(script) {
		var err error
		if item.meta {
			err = runMeta(w, db, item.text, &cacheOn, cacheBytes)
		} else {
			err = run(w, db, item.text, explain, timeout, cacheOn)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// runMeta executes one backslash meta line.
func runMeta(w io.Writer, db *raven.DB, line string, cacheOn *bool, cacheBytes int64) error {
	fields := strings.Fields(line)
	switch strings.ToLower(fields[0]) {
	case `\cache`:
		if len(fields) == 1 {
			state := "off"
			if *cacheOn {
				state = "on"
			}
			fmt.Fprintf(w, "-- cache %s", state)
			if st := db.Stats().ResultCache; st != nil {
				fmt.Fprintf(w, " (hits %d, misses %d, %d entries, %d/%d bytes)",
					st.Hits, st.Misses, st.Entries, st.Bytes, st.MaxBytes)
			}
			fmt.Fprintln(w)
			return nil
		}
		switch strings.ToLower(fields[1]) {
		case "on":
			if cacheBytes <= 0 {
				return fmt.Errorf(`\cache on: no cache was built (ran with -result-cache-bytes 0)`)
			}
			*cacheOn = true
		case "off":
			*cacheOn = false
		default:
			return fmt.Errorf(`\cache: want on, off or no argument, got %q`, fields[1])
		}
		return nil
	default:
		return fmt.Errorf("unknown meta command %q (try \\cache)", fields[0])
	}
}

func setup(rows, parallelism int, cacheBytes int64, dataDir, fsync string, segmentRows int) (*raven.DB, error) {
	opts := []raven.Option{raven.WithParallelism(parallelism)}
	if cacheBytes > 0 {
		opts = append(opts, raven.WithResultCache(cacheBytes))
	}
	if dataDir != "" {
		opts = append(opts, raven.WithDataDir(dataDir), raven.WithFsync(fsync), raven.WithSegmentRows(segmentRows))
	}
	db, err := raven.Open(opts...)
	if err != nil {
		return nil, err
	}
	if db.Catalog().HasTable("patient_info") {
		// A recovered durable directory already holds the demo workload.
		return db, nil
	}
	h, err := data.GenHospital(db.Catalog(), rows, 4000, 42)
	if err != nil {
		return nil, err
	}
	tree := train.FitTree(h.TrainX, h.TrainY, train.TreeOptions{MaxDepth: 6, MinLeaf: 10})
	if err := db.StoreModel("duration_of_stay", &ml.Pipeline{Final: tree, InputColumns: h.FeatureCols}); err != nil {
		return nil, err
	}
	fl, err := data.GenFlightsWide(db.Catalog(), rows, 100, 30, 4000, 7)
	if err != nil {
		return nil, err
	}
	lr := train.FitLogReg(fl.TrainX, fl.TrainY, train.LogRegOptions{L1: 0.02, Epochs: 60, Seed: 1})
	if err := db.StoreModel("flight_delay", &ml.Pipeline{Final: lr, InputColumns: fl.FeatureCols}); err != nil {
		return nil, err
	}
	return db, nil
}

// scriptItem is one unit of script execution: a SQL statement group or
// a backslash meta line.
type scriptItem struct {
	meta bool
	text string
}

// splitScript separates backslash meta lines (processed line-by-line,
// in order) from the SQL around them, which it cuts into statement
// groups: each group ends at a SELECT, and a tail without one is a group
// of its own.
func splitScript(s string) []scriptItem {
	var out []scriptItem
	var text strings.Builder
	flush := func() {
		var group []string
		for _, stmt := range sql.SplitStatements(text.String()) {
			group = append(group, stmt)
			if sql.ClassifyScript(stmt) != sql.ScriptSideEffectsOnly {
				out = append(out, scriptItem{text: strings.Join(group, ";")})
				group = nil
			}
		}
		if group != nil {
			out = append(out, scriptItem{text: strings.Join(group, ";")})
		}
		text.Reset()
	}
	for _, line := range strings.Split(s, "\n") {
		if t := strings.TrimSpace(line); strings.HasPrefix(t, `\`) {
			flush()
			out = append(out, scriptItem{meta: true, text: t})
			continue
		}
		text.WriteString(line)
		text.WriteByte('\n')
	}
	flush()
	return out
}

// run executes one statement group: through Exec when it holds no
// SELECT, else as one query script (the engine runs its side effects
// and streams the SELECT). Explain runs nothing, so under -explain the
// group's DDL and INSERTs go through Exec first and its DECLAREs are
// explained with the SELECT they bind for.
func run(w io.Writer, db *raven.DB, stmt string, explain bool, timeout time.Duration, cacheOn bool) error {
	if sql.ClassifyScript(stmt) == sql.ScriptSideEffectsOnly {
		return db.Exec(stmt)
	}
	if explain {
		var read []string
		for _, s := range sql.SplitStatements(stmt) {
			// Beside a SELECT, only a statement that is neither SELECT
			// nor DECLARE makes a script mixed.
			if sql.ClassifyScript(s+"\n;SELECT 1") != sql.ScriptMixed {
				read = append(read, s)
			} else if err := db.Exec(s); err != nil {
				return err
			}
		}
		out, err := db.Explain(strings.Join(read, ";"), raven.DefaultQueryOptions())
		if err != nil {
			return err
		}
		fmt.Fprintln(w, out)
		return nil
	}
	ctx := context.Background()
	if !cacheOn {
		// The engine may hold a result cache (built at -result-cache-bytes)
		// but the script has not opted in: bypass per query.
		ctx = raven.ContextWithoutResultCache(ctx)
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	rows, err := db.QueryContext(ctx, stmt)
	if err != nil {
		return err
	}
	defer rows.Close()
	cols := rows.Columns()
	fmt.Fprintln(w, strings.Join(cols, "\t"))
	const maxPrint = 25
	n := 0
	for b := rows.NextBatch(); b != nil; b = rows.NextBatch() {
		for i := 0; i < b.Len() && n+i < maxPrint; i++ {
			parts := make([]string, len(b.Vecs))
			for j, v := range b.Vecs {
				parts[j] = fmt.Sprintf("%v", v.Value(i))
			}
			fmt.Fprintln(w, strings.Join(parts, "\t"))
		}
		n += b.Len()
	}
	if err := rows.Err(); err != nil {
		return err
	}
	if n > maxPrint {
		fmt.Fprintf(w, "... (%d rows total)\n", n)
	}
	fmt.Fprintf(w, "-- %d rows in %v (compile %v + exec %v)",
		n, (rows.CompileTime + rows.ExecTime()).Round(100*1000),
		rows.CompileTime.Round(100*1000), rows.ExecTime().Round(100*1000))
	if len(rows.AppliedRules) > 0 {
		fmt.Fprintf(w, " (rules: %s)", strings.Join(rows.AppliedRules, ", "))
	}
	fmt.Fprintln(w)
	return nil
}

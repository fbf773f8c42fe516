package lang

import (
	"fmt"
)

// The front end as it was before Parse pulled lexemes on demand and
// stopped checking Normalize's output a second time, kept as the oracle
// Parse is held to (TestParseMatchesReference, FuzzParser): the whole
// source lexed first, so that a lexing error anywhere wins over every
// other error; then parse, check, normalize, and a second check to type
// what normalization introduced.

// refParse is that pipeline. Once LexAll accepts the source, ParseRaw
// meets no lexing error, so on such a source it parses as the
// lexeme-array parser did.
func refParse(src string) (*Program, error) {
	if _, err := LexAll(src); err != nil {
		return nil, err
	}
	p, err := ParseRaw(src)
	if err != nil {
		return nil, err
	}
	if err := Check(p); err != nil {
		return nil, err
	}
	if err := Normalize(p); err != nil {
		return nil, err
	}
	if err := Check(p); err != nil {
		return nil, fmt.Errorf("lang: internal: post-normalize check failed: %w", err)
	}
	return p, nil
}

// ParseDiff parses src with Parse and with the reference and describes
// the first difference — error text, printed program, or the type of
// one expression — or returns "" when there is none. Exported for the
// corpus test, which lives in package lang_test so that it may import
// the packages holding the corpus (they import this one).
func ParseDiff(src string) string {
	got, gotErr := Parse(src)
	want, wantErr := refParse(src)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		return fmt.Sprintf("error %v, reference %v", gotErr, wantErr)
	}
	if gotErr != nil {
		return ""
	}
	if g, w := Format(got), Format(want); g != w {
		return fmt.Sprintf("printed program:\n%s\nreference:\n%s", g, w)
	}
	g, w := exprTypes(got), exprTypes(want)
	if len(g) != len(w) {
		return fmt.Sprintf("%d expressions, reference %d", len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			return fmt.Sprintf("expression %s, reference %s", g[i], w[i])
		}
	}
	return ""
}

// exprTypes lists every expression of p with its type, in walk order.
func exprTypes(p *Program) []string {
	var out []string
	for _, f := range p.Funcs {
		Walk(f.Body, func(s Stmt) bool {
			WalkExprs(s, func(e Expr) {
				out = append(out, fmt.Sprintf("%s %T %v", e.Pos(), e, e.Type()))
			})
			return true
		})
	}
	return out
}

package compile

import "repro/internal/lang"

// SwapFields exchanges two fields' entries in record's table: the
// mutation the reference test must catch.
func SwapFields(p *Program, record string, a, b lang.ID) {
	f := p.fields[record]
	f[a], f[b] = f[b], f[a]
}

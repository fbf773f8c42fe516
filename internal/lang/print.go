package lang

import (
	"fmt"
	"strconv"
	"strings"
)

// Format renders the program back to PSL source text: ADDS type
// declarations first, then functions, in their original order.
func Format(p *Program) string {
	var b strings.Builder
	for _, name := range p.Universe.Types() {
		b.WriteString(p.Universe.Decl(name).String())
		b.WriteString("\n\n")
	}
	for i, f := range p.Funcs {
		if i > 0 {
			b.WriteString("\n")
		}
		b.WriteString(FormatFunc(f))
	}
	return b.String()
}

// FormatFunc renders one function definition.
func FormatFunc(f *FuncDecl) string {
	var b strings.Builder
	if f.IsProcedure() {
		b.WriteString("procedure ")
	} else {
		fmt.Fprintf(&b, "function %s ", f.Result)
	}
	b.WriteString(f.Name)
	b.WriteString("(")
	for i, prm := range f.Params {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %s", paramType(prm.Type), prm.Name)
	}
	b.WriteString(") ")
	printBlock(&b, f.Body, 0)
	b.WriteString("\n")
	return b.String()
}

// paramType renders "Octree *" style for pointers, plain for scalars.
func paramType(t Type) string {
	if elem, ok := IsPointer(t); ok {
		return elem + " *"
	}
	return t.String()
}

func ind(b *strings.Builder, n int) {
	for i := 0; i < n; i++ {
		b.WriteString("  ")
	}
}

func printBlock(b *strings.Builder, blk *Block, indent int) {
	b.WriteString("{\n")
	for _, s := range blk.Stmts {
		printStmt(b, s, indent+1)
	}
	ind(b, indent)
	b.WriteString("}")
}

func printStmt(b *strings.Builder, s Stmt, indent int) {
	ind(b, indent)
	switch s := s.(type) {
	case *Block:
		printBlock(b, s, indent)
		b.WriteString("\n")
	case *VarStmt:
		if elem, ok := IsPointer(s.DeclType); ok {
			fmt.Fprintf(b, "var %s *%s", elem, s.Name)
		} else {
			fmt.Fprintf(b, "var %s %s", s.DeclType, s.Name)
		}
		if s.Init != nil {
			fmt.Fprintf(b, " = %s", FormatExpr(s.Init))
		}
		b.WriteString(";\n")
	case *AssignStmt:
		fmt.Fprintf(b, "%s = %s;\n", FormatExpr(s.LHS), FormatExpr(s.RHS))
	case *WhileStmt:
		fmt.Fprintf(b, "while %s ", FormatExpr(s.Cond))
		printBlock(b, s.Body, indent)
		b.WriteString("\n")
	case *IfStmt:
		fmt.Fprintf(b, "if %s ", FormatExpr(s.Cond))
		printBlock(b, s.Then, indent)
		if s.Else != nil {
			b.WriteString(" else ")
			printBlock(b, s.Else, indent)
		}
		b.WriteString("\n")
	case *ReturnStmt:
		if s.Value == nil {
			b.WriteString("return;\n")
		} else {
			fmt.Fprintf(b, "return %s;\n", FormatExpr(s.Value))
		}
	case *CallStmt:
		fmt.Fprintf(b, "%s;\n", FormatExpr(s.Call))
	case *ForStmt:
		kw := "for"
		if s.Parallel {
			kw = "forall"
		}
		fmt.Fprintf(b, "%s %s = %s to %s ", kw, s.Var, FormatExpr(s.From), FormatExpr(s.To))
		printBlock(b, s.Body, indent)
		b.WriteString("\n")
	default:
		fmt.Fprintf(b, "/* unknown stmt %T */\n", s)
	}
}

// FormatExpr renders an expression with minimal parentheses (fully
// parenthesized binaries to keep the printer simple and unambiguous).
func FormatExpr(e Expr) string {
	switch e := e.(type) {
	case *Ident:
		return e.Name
	case *FieldExpr:
		s := FormatExpr(e.X) + "->" + e.Field
		if e.Index != nil {
			s += "[" + FormatExpr(e.Index) + "]"
		}
		return s
	case *CallExpr:
		args := make([]string, len(e.Args))
		for i, a := range e.Args {
			args[i] = FormatExpr(a)
		}
		return e.Func + "(" + strings.Join(args, ", ") + ")"
	case *NewExpr:
		return "new " + e.TypeName
	case *NullLit:
		return "NULL"
	case *IntLit:
		return strconv.FormatInt(e.Val, 10)
	case *RealLit:
		s := strconv.FormatFloat(e.Val, 'g', -1, 64)
		if !strings.ContainsAny(s, ".eE") {
			s += ".0"
		}
		return s
	case *StrLit:
		return quotePSL(e.Val)
	case *BoolLit:
		if e.Val {
			return "true"
		}
		return "false"
	case *BinExpr:
		return "(" + FormatExpr(e.X) + " " + e.Op.String() + " " + FormatExpr(e.Y) + ")"
	case *UnExpr:
		return e.Op.String() + FormatExpr(e.X)
	}
	return fmt.Sprintf("/* unknown expr %T */", e)
}

// quotePSL renders a string literal in PSL's own escape set — \n, \t,
// \", \\ — leaving every other byte raw (the lexer accepts arbitrary
// raw bytes inside a literal, including newlines). Go's strconv.Quote
// would emit escapes like \x01 that PSL does not lex, breaking the
// parse→print→parse round trip the fuzzer enforces.
func quotePSL(s string) string {
	var b strings.Builder
	b.WriteByte('"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '\n':
			b.WriteString(`\n`)
		case '\t':
			b.WriteString(`\t`)
		case '"':
			b.WriteString(`\"`)
		case '\\':
			b.WriteString(`\\`)
		default:
			b.WriteByte(c)
		}
	}
	b.WriteByte('"')
	return b.String()
}

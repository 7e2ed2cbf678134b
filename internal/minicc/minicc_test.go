package minicc

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/vm"
)

// compileRun compiles src, runs it, and returns the exit code and
// syscall output.
func compileRun(t *testing.T, src string) (int, string) {
	t.Helper()
	p, err := Compile("test.c", src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	var out bytes.Buffer
	m, err := vm.New(vm.Config{Program: p, Out: &out})
	if err != nil {
		t.Fatalf("vm.New: %v", err)
	}
	if err := m.Run(context.Background(), 50_000_000, nil); err != nil || !m.Halted() {
		asmText, _ := CompileToAsm("test.c", src)
		t.Fatalf("run: %v (halted %v)\nassembly:\n%s", err, m.Halted(), asmText)
	}
	return m.ExitCode(), out.String()
}

func expectExit(t *testing.T, src string, want int) {
	t.Helper()
	got, _ := compileRun(t, src)
	if got != want {
		t.Errorf("exit = %d, want %d", got, want)
	}
}

func TestReturnConstant(t *testing.T) {
	expectExit(t, "int main() { return 42; }", 42)
}

func TestArithmetic(t *testing.T) {
	expectExit(t, `
int main() {
	int a = 7;
	int b = 3;
	return a*b + a/b - a%b + (a<<1) - (a>>1) + (a&b) + (a|b) + (a^b);
}`, 21+2-1+14-3+3+7+4)
}

func TestGlobalsAndInit(t *testing.T) {
	expectExit(t, `
int g = 5;
int h;
int main() {
	h = g + 10;
	g = g * 2;
	return g + h;
}`, 25)
}

func TestGlobalArray(t *testing.T) {
	expectExit(t, `
int a[10];
int main() {
	int i;
	for (i = 0; i < 10; i++) a[i] = i * i;
	int sum = 0;
	for (i = 0; i < 10; i++) sum += a[i];
	return sum;
}`, 285)
}

func TestLocalArrayIsStack(t *testing.T) {
	expectExit(t, `
int main() {
	int a[8];
	int i;
	for (i = 0; i < 8; i++) a[i] = i;
	return a[3] + a[7];
}`, 10)
}

func TestPointers(t *testing.T) {
	expectExit(t, `
int main() {
	int x = 11;
	int *p = &x;
	*p = *p + 1;
	int y = *p;
	p = &y;
	*p += 5;
	return x + y;
}`, 12+17)
}

func TestMallocAndHeap(t *testing.T) {
	expectExit(t, `
int main() {
	int *p = malloc(40);
	int i;
	for (i = 0; i < 10; i++) p[i] = i + 1;
	int sum = 0;
	for (i = 0; i < 10; i++) sum += p[i];
	return sum;
}`, 55)
}

func TestPointerArithmetic(t *testing.T) {
	expectExit(t, `
int main() {
	int *p = malloc(16);
	p[0] = 1; p[1] = 2; p[2] = 3; p[3] = 4;
	int *q = p + 3;
	int d = q - p;
	return *q * 10 + d;
}`, 43)
}

func TestRecursionFib(t *testing.T) {
	expectExit(t, `
int fib(int n) {
	if (n < 2) return n;
	return fib(n-1) + fib(n-2);
}
int main() { return fib(12); }`, 144)
}

func TestManyParams(t *testing.T) {
	expectExit(t, `
int sum8(int a, int b, int c, int d, int e, int f, int g, int h) {
	return a + b + c + d + e + f + g + h;
}
int main() { return sum8(1, 2, 3, 4, 5, 6, 7, 8); }`, 36)
}

func TestForwardCall(t *testing.T) {
	expectExit(t, `
int main() { return later(21); }
int later(int x) { return x * 2; }`, 42)
}

func TestWhileBreakContinue(t *testing.T) {
	expectExit(t, `
int main() {
	int i = 0;
	int sum = 0;
	while (1) {
		i++;
		if (i > 100) break;
		if (i % 2 == 0) continue;
		sum += i;
	}
	return sum;
}`, 2500)
}

func TestLogicalOps(t *testing.T) {
	expectExit(t, `
int count = 0;
int bump() { count++; return 1; }
int main() {
	int a = 0 && bump();
	int b = 1 || bump();
	int c = 1 && bump();
	int d = 0 || bump();
	return count * 100 + a*8 + b*4 + c*2 + d;
}`, 207)
}

func TestFloatArithmetic(t *testing.T) {
	expectExit(t, `
int main() {
	float x = 1.5;
	float y = 2.5;
	float z = x * y + 0.25;
	if (z >= 4.0 && z < 4.1) return 1;
	return 0;
}`, 1)
}

func TestFloatIntConversion(t *testing.T) {
	expectExit(t, `
int main() {
	int n = 7;
	float f = n;         // implicit int->float
	f = f / 2.0;
	int back = (int)f;   // 3.5 -> 3
	float g = 2;
	return back + (int)(g * 10.0);
}`, 23)
}

func TestSqrtBuiltin(t *testing.T) {
	expectExit(t, `
int main() {
	float r = sqrtf(144.0);
	return (int)r + (int)fabsf(-5.0);
}`, 17)
}

func TestFloatGlobalsAndArrays(t *testing.T) {
	expectExit(t, `
float scale = 2.5;
float tbl[16];
int main() {
	int i;
	for (i = 0; i < 16; i++) tbl[i] = i * scale;
	float sum = 0.0;
	for (i = 0; i < 16; i++) sum += tbl[i];
	return (int)sum;
}`, 300)
}

func TestPrintOutput(t *testing.T) {
	_, out := compileRun(t, `
int main() {
	print_str("n=");
	print_int(42);
	print_char('\n');
	return 0;
}`)
	if out != "n=42\n" {
		t.Errorf("output = %q", out)
	}
}

func TestSizeof(t *testing.T) {
	expectExit(t, `int main() { return sizeof(int) + sizeof(float) + sizeof(int*); }`, 12)
}

func TestCastMallocToFloatPtr(t *testing.T) {
	expectExit(t, `
int main() {
	float *f = (float*)malloc(8 * sizeof(float));
	int i;
	for (i = 0; i < 8; i++) f[i] = i + 0.5;
	float s = 0.0;
	for (i = 0; i < 8; i++) s += f[i];
	return (int)s;
}`, 32)
}

func TestAddressOfForcesStack(t *testing.T) {
	// Mirrors the paper's Figure 1: &a forces a onto the stack.
	p, err := Compile("test.c", `
void bump(int *p) { *p = *p + 1; }
int main() {
	int a = 10;
	bump(&a);
	return a;
}`)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	m, err := vm.New(vm.Config{Program: p, Out: &out})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(context.Background(), 0, nil); err != nil {
		t.Fatal(err)
	}
	if m.ExitCode() != 11 {
		t.Errorf("exit = %d, want 11", m.ExitCode())
	}
}

func TestExitBuiltin(t *testing.T) {
	expectExit(t, `
int main() {
	exit(7);
	return 0;
}`, 7)
}

func TestNestedCallsAndSpills(t *testing.T) {
	expectExit(t, `
int add(int a, int b) { return a + b; }
int main() {
	// Force live temporaries across nested calls.
	return add(add(1, 2), add(add(3, 4), add(5, 6)));
}`, 21)
}

func TestStackArgsWithNestedCalls(t *testing.T) {
	expectExit(t, `
int six(int a, int b, int c, int d, int e, int f) {
	return a*1 + b*2 + c*3 + d*4 + e*5 + f*6;
}
int id(int x) { return x; }
int main() {
	return six(id(1), id(2), id(3), id(4), id(5), id(6));
}`, 1+4+9+16+25+36)
}

func TestGlobalPointer(t *testing.T) {
	expectExit(t, `
int *cursor;
int buf[4];
int main() {
	cursor = buf;
	*cursor = 5;
	cursor = cursor + 1;
	*cursor = 6;
	return buf[0] * 10 + buf[1];
}`, 56)
}

func TestCompileErrors(t *testing.T) {
	cases := []struct{ name, src, wantSub string }{
		{"undeclared", "int main() { return x; }", "undeclared identifier"},
		{"no main", "int foo() { return 0; }", "no main function"},
		{"bad call", "int main() { return foo(); }", "undefined function"},
		{"arg count", "int f(int x) { return x; } int main() { return f(); }", "1 argument"},
		{"lvalue", "int main() { 3 = 4; return 0; }", "non-lvalue"},
		{"deref int", "int main() { int x; return *x; }", "dereference of non-pointer"},
		{"void var", "void v; int main() { return 0; }", "void type"},
		{"redecl", "int main() { int a; int a; return 0; }", "redeclaration"},
		{"break outside", "int main() { break; return 0; }", "outside a loop"},
		{"float mod", "int main() { float f = 1.0; return 2 % (int)f + (int)(f % 2.0); }", "needs int operands"},
		{"ptr mismatch", "int main() { int x; float *p = &x; return 0; }", "cannot convert"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Compile("t.c", c.src)
			if err == nil {
				t.Fatalf("want error containing %q", c.wantSub)
			}
			if !strings.Contains(err.Error(), c.wantSub) {
				t.Errorf("error %q missing %q", err, c.wantSub)
			}
		})
	}
}

func TestHintAnnotations(t *testing.T) {
	asmText, err := CompileToAsm("t.c", `
int g[8];
int main() {
	int a[4];
	int *hp = malloc(16);
	int *sp2 = a;
	int i;
	for (i = 0; i < 4; i++) {
		g[i] = i;      // nonstack
		a[i] = i;      // stack
		hp[i] = i;     // nonstack (malloc)
		sp2[i] = i;    // stack (points to local array)
	}
	return 0;
}`)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{";@nonstack", ";@stack"} {
		if !strings.Contains(asmText, want) {
			t.Errorf("assembly missing %s hints", want)
		}
	}
	// hp derives from malloc: its stores must be hinted nonstack.
	// sp2 derives from a local array: stack.
	var hpHint, spHint string
	for _, line := range strings.Split(asmText, "\n") {
		if strings.Contains(line, "sw") && strings.Contains(line, ";@") {
			_ = line
		}
	}
	_ = hpHint
	_ = spHint
}

func TestUnknownHintForParams(t *testing.T) {
	// Mirrors *parm1 in the paper's Figure 1: a pointer parameter's
	// region is unknown to the compiler.
	asmText, err := CompileToAsm("t.c", `
int deref(int *p) { return *p; }
int main() {
	int x = 3;
	return deref(&x);
}`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(asmText, ";@unknown") {
		t.Error("pointer-parameter dereference should be hinted unknown")
	}
}

func TestMixedPointerIsUnknown(t *testing.T) {
	// A pointer assigned both stack and non-stack values joins to
	// unknown (Figure 6's flag logic).
	asmText, err := CompileToAsm("t.c", `
int g[4];
int main() {
	int a[4];
	int *p = g;
	p = a;
	*p = 1;
	return 0;
}`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(asmText, ";@unknown") {
		t.Error("mixed-region pointer should be hinted unknown")
	}
}

func TestPrefixPostfixIncrement(t *testing.T) {
	expectExit(t, `
int main() {
	int i = 0;
	int sum = 0;
	for (i = 0; i < 5; ++i) sum += i;
	int j = 10;
	j--;
	--j;
	return sum * 100 + j;
}`, 1008)
}

func TestCharLiterals(t *testing.T) {
	expectExit(t, `int main() { return 'A' + '\n'; }`, 65+10)
}

func TestLargeGlobalBeyondGPWindow(t *testing.T) {
	// 100 KB array: beyond the 64 KB $gp window, so accesses go through
	// la/lui addressing. Behaviour must be identical.
	expectExit(t, `
int big[25600];
int tail;
int main() {
	int i;
	for (i = 0; i < 25600; i += 1000) big[i] = i;
	tail = big[25000];
	return tail / 1000;
}`, 25)
}

func TestCommaSeparatedGlobals(t *testing.T) {
	expectExit(t, `
int a = 1, b = 2, c = 3;
int main() { return a + b*10 + c*100; }`, 321)
}

package decouple

import (
	"context"
	"testing"

	"repro/internal/minicc"
	"repro/internal/profile"
)

const src = `
int g[128];
int acc;
int mix(int *v, int n) {
	int s = 0;
	int i;
	for (i = 0; i < n; i++) s += v[i];
	return s;
}
int main() {
	int a[128];
	int *h = malloc(128 * sizeof(int));
	int it;
	for (it = 0; it < 300; it++) {
		int i;
		for (i = 0; i < 128; i++) { g[i] = i; a[i] = i; h[i] = i; }
		acc += mix(g, 128) + mix(a, 128) + mix(h, 128);
	}
	return acc & 255;
}`

func TestPolicyNamesDistinct(t *testing.T) {
	seen := map[string]bool{}
	for _, p := range AllPolicies {
		n := p.String()
		if n == "" || seen[n] {
			t.Errorf("policy name %q empty or duplicated", n)
		}
		seen[n] = true
	}
}

func TestClassifierConstruction(t *testing.T) {
	p, err := minicc.Compile("t.c", src)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := profile.Run(context.Background(), p, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range AllPolicies {
		cls, err := Classifier(pol, p, pr)
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		if pol == PolicyPerfect {
			if cls != nil {
				t.Error("perfect policy should have no classifier")
			}
			continue
		}
		if pol == PolicyStaticOnly {
			if cls.Table != nil {
				t.Error("static-only policy should have no table")
			}
			continue
		}
		if cls.Table == nil {
			t.Errorf("%v: missing ARPT", pol)
		}
		wantHints := pol == PolicyCompiler || pol == PolicyOracle
		if (cls.Hints != nil) != wantHints {
			t.Errorf("%v: hints presence = %v", pol, cls.Hints != nil)
		}
	}
	if _, err := Classifier(PolicyOracle, p, nil); err == nil {
		t.Error("oracle policy without a profile should fail")
	}
}

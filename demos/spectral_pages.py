"""The u-power filtration spaces and pages of a model complex.

Walks through Z_k, B_k, the structural maps Delta^k, the Leray pages and the
convergence of the last page to the cohomology of the filtered complex.
"""

from s1cochain import (
    build_filtered_plus,
    cohomology,
    delta_k,
    e_infinity,
    filtration_tower,
    leray_pages,
    milnor_model,
)


def show_chain(c, v):
    return " + ".join(f"{x}*{c.generators[i].name}" for i, x in sorted(v.items()))


def main() -> None:
    s = milnor_model(3, 3, truncation=6, include_spheres=False)
    c = s.complex
    print(f"model (3,3): {c.n} generators, truncation {c.truncation}")

    tower = filtration_tower(c, 2)   # Z_k and B_k of every k <= 2, from F^2
    for k in range(3):
        zs = tower.z(k)
        bs = tower.b(k)
        print(f"\nZ_{k}: dim {len(zs)}, leading terms "
              f"{[show_chain(c, w.leading) for w in zs]}")
        print(f"B_{k}: dim {len(bs)}, values "
              f"{[show_chain(c, w.boundary_value) for w in bs]}")

    print("\nstructural maps:")
    for k in (1, 2, 3):
        dk = delta_k(c, k)
        print(f"  Delta^{k}: domain {dk.domain.dim}, rank {dk.rank}, "
              f"kernel {dk.kernel_dim}, cokernel {dk.coker_dim}")

    print("\npage dimensions by total degree:")
    for page in leray_pages(c)[:4]:   # every page from one tower of F^N
        print(f"  page {page.page_number}: {page.dims_by_total_degree(c.degrees)}")

    einf = e_infinity(c)
    f = build_filtered_plus(c, c.truncation)
    target = {d: g.dim for d, g in cohomology(f).items() if g.dim}
    print(f"\nlast page        : {einf.dims_by_total_degree(c.degrees)}")
    print(f"H(F^{c.truncation}) directly : {target}")
    assert einf.dims_by_total_degree(c.degrees) == target
    print("convergence confirmed (exact dimension match per degree)")


if __name__ == "__main__":
    main()

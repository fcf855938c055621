"""Scalar dense-matrix arithmetic on flat row-major tuples of field-element
encodings: the slow references the numpy batch kernels are tested against."""

from e1forge.gf2k import FieldSpec


def mat_identity(d: int) -> tuple[int, ...]:
    return tuple(1 if i == j else 0 for i in range(d) for j in range(d))


def mat_mul(field: FieldSpec, a, b, d: int) -> tuple[int, ...]:
    out = [0] * (d * d)
    for i in range(d):
        for k in range(d):
            aik = a[i * d + k]
            if aik:
                for j in range(d):
                    out[i * d + j] ^= field.mul(aik, b[k * d + j])
    return tuple(out)


def mat_inv(field: FieldSpec, m, d: int) -> tuple[int, ...]:
    """Gauss-Jordan inverse; raises ValueError if singular."""
    a = [list(m[i * d : (i + 1) * d]) for i in range(d)]
    inv = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
    for col in range(d):
        pivot = next((r for r in range(col, d) if a[r][col]), None)
        if pivot is None:
            raise ValueError("matrix not invertible")
        a[col], a[pivot] = a[pivot], a[col]
        inv[col], inv[pivot] = inv[pivot], inv[col]
        scale = field.inv(a[col][col])
        a[col] = [field.mul(scale, x) for x in a[col]]
        inv[col] = [field.mul(scale, x) for x in inv[col]]
        for r in range(d):
            if r != col and a[r][col]:
                coef = a[r][col]
                a[r] = [x ^ field.mul(coef, y) for x, y in zip(a[r], a[col])]
                inv[r] = [x ^ field.mul(coef, y) for x, y in zip(inv[r], inv[col])]
    return tuple(x for row in inv for x in row)

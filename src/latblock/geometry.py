"""Templates, scaled regions, lattice windows, set covariance and subsample enumeration.

A template is a convex prototype set inside the half-open unit cube
``(-1/2, 1/2]^d``.  A region is the template inflated by a positive diagonal
scaling and observed on a shifted integer lattice.  Subsamples are integer
translates of a scaled-down template (overlapping scheme, ``ol``) or template
copies inscribed in disjoint cubes tiling the region (nonoverlapping, ``nol``).

All types are immutable after construction and every operation here is a pure
function of its inputs.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    ConfigError,
    DimensionMismatch,
    EmptySubsampleSet,
    EmptyWindow,
    NonIntegerScaleWarning,
    UnsupportedShape,
)

_EQ_TOL = 1e-9
# Grid cells per block of raster_mask: their centers and membership tests
# then take a few hundred kB.
_RASTER_BLOCK_CELLS = 1 << 14

OL = "ol"
NOL = "nol"


# ---------------------------------------------------------------------------
# geometric primitives
# ---------------------------------------------------------------------------


class _Geometry:
    """Internal convex-body interface backing a Template."""

    d: int

    def contains(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def volume(self) -> float:
        raise NotImplementedError

    def support(self, n: np.ndarray) -> float:
        """sup of n.x over the closure."""
        raise NotImplementedError

    def set_cov_exact(self, x: np.ndarray) -> float:
        """|K ∩ (x + K)| in closed form (exact up to rounding)."""
        raise NotImplementedError

    def boundary_rate(self, lags: np.ndarray) -> np.ndarray:
        """Volume-loss rate V(k), lags (..., d): |k| times the (d-1)-volume of
        the projection along k (Cauchy's formula), -d/dt |K ∩ (tk + K)| at 0."""
        raise NotImplementedError

    def bias_weight(self, lags: np.ndarray) -> np.ndarray:
        """Covariogram weight of the bias constant: V(k) / |K|."""
        return self.boundary_rate(lags) / self.volume()

    def contains_scaled(self, pts, scale, shift) -> np.ndarray:
        """Membership of ``pts + shift`` in the diagonally inflated set.

        Shapes with algebraic boundaries override this to compare in absolute
        coordinates, where lattice sites exactly on the boundary (Pythagorean
        radii, half-integer faces) are decided without division rounding.
        """
        pts = np.asarray(pts, float)
        return self.contains((pts + shift) / scale)

    def diameter(self) -> float:
        ext = np.array([self.support(e) + self.support(-e) for e in np.eye(self.d)])
        return float(np.linalg.norm(ext))

    def bbox(self):
        eye = np.eye(self.d)
        hi = np.array([self.support(e) for e in eye])
        lo = -np.array([self.support(-e) for e in eye])
        return lo, hi


class _Box(_Geometry):
    """Half-open unit cube (-1/2, 1/2]^d (faces at +1/2 included)."""

    def __init__(self, d: int):
        self.d = d

    def contains(self, pts):
        pts = np.asarray(pts, float)
        return np.all((pts > -0.5) & (pts <= 0.5), axis=-1)

    def volume(self):
        return 1.0

    def support(self, n):
        return 0.5 * float(np.abs(n).sum())

    def set_cov_exact(self, x):
        x = np.asarray(x, float)
        return float(np.prod(np.maximum(0.0, 1.0 - np.abs(x))))

    def boundary_rate(self, lags):
        return np.abs(lags).sum(axis=-1)

    def contains_scaled(self, pts, scale, shift):
        pts = np.asarray(pts, float) + shift
        half = 0.5 * np.asarray(scale, float)
        return np.all((pts > -half) & (pts <= half), axis=-1)


class _Ball(_Geometry):
    """Closed ball of radius r centered at the origin (circle or sphere)."""

    def __init__(self, d: int, r: float):
        self.d = d
        self.r = float(r)

    def contains(self, pts):
        pts = np.asarray(pts, float)
        return (pts * pts).sum(axis=-1) <= self.r * self.r

    def volume(self):
        if self.d == 2:
            return math.pi * self.r**2
        if self.d == 3:
            return 4.0 / 3.0 * math.pi * self.r**3
        raise UnsupportedShape(f"ball volume for d={self.d}")

    def support(self, n):
        return self.r * float(np.linalg.norm(n))

    def contains_scaled(self, pts, scale, shift):
        scale = np.asarray(scale, float)
        if np.all(scale == scale[0]):
            pts = np.asarray(pts, float) + shift
            rad = scale[0] * self.r
            return (pts * pts).sum(axis=-1) <= rad * rad
        return self.contains((np.asarray(pts, float) + shift) / scale)

    def set_cov_exact(self, x):
        t = float(np.linalg.norm(np.asarray(x, float)))
        r = self.r
        if t >= 2.0 * r:
            return 0.0
        if self.d == 2:
            return 2.0 * r * r * math.acos(t / (2.0 * r)) - 0.5 * t * math.sqrt(
                4.0 * r * r - t * t
            )
        if self.d == 3:
            return math.pi * (2.0 * r - t) ** 2 * (4.0 * r + t) / 12.0
        raise UnsupportedShape(f"ball set covariance for d={self.d}")

    def boundary_rate(self, lags):
        norm = np.linalg.norm(lags, axis=-1)
        if self.d == 2:
            return 2.0 * self.r * norm
        if self.d == 3:
            return math.pi * self.r**2 * norm
        raise UnsupportedShape(f"ball boundary rate for d={self.d}")


class _Poly2(_Geometry):
    """Convex polygon in the plane, counterclockwise vertices.

    ``closed[i]`` says whether edge i (from verts[i] to verts[i+1]) belongs
    to the set; vertices inherit membership from the edge tests.
    """

    d = 2

    def __init__(self, verts, closed):
        self.verts = np.asarray(verts, float)
        self.closed = list(closed)
        if len(self.closed) != len(self.verts):
            raise ValueError("need one closedness flag per edge")
        # outward normals (CCW orientation) and offsets
        rolled = np.roll(self.verts, -1, axis=0)
        edges = rolled - self.verts
        self.normals = np.stack([edges[:, 1], -edges[:, 0]], axis=1)
        self.offsets = np.einsum("ij,ij->i", self.normals, self.verts)

    def contains(self, pts):
        pts = np.asarray(pts, float)
        s = pts @ self.normals.T - self.offsets
        ok = np.ones(s.shape[:-1], dtype=bool)
        for i, cl in enumerate(self.closed):
            ok &= (s[..., i] <= 0.0) if cl else (s[..., i] < 0.0)
        return ok

    def volume(self):
        x, y = self.verts[:, 0], self.verts[:, 1]
        return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))

    def support(self, n):
        return float(np.max(self.verts @ np.asarray(n, float)))

    def set_cov_exact(self, x):
        return _poly_intersection_area(self.verts, self.verts + np.asarray(x, float))

    def boundary_rate(self, lags):
        # the normals have edge length, so each |k.n| is an edge's projected
        # length times |k|; the projection is covered twice
        return 0.5 * np.abs(_project(lags, self.normals)).sum(axis=-1)


class _Rect2(_Poly2):
    """Rectangle of extent ``sides[i]`` along the unit vector ``axes[i]``.

    Its bias weight sums |k.u_i| / l_i, which keeps exact identities (the
    diamond's 2 max|k_i|) that V(k) over the shoelace area misses by an ulp.
    """

    def __init__(self, verts, closed, axes, sides):
        super().__init__(verts, closed)
        self.axes = np.asarray(axes, float)
        self.sides = np.asarray(sides, float)

    def bias_weight(self, lags):
        return (np.abs(_project(lags, self.axes)) / self.sides).sum(axis=-1)


class _Cylinder(_Geometry):
    """Closed cylinder in R^3: circular base of radius r in the x-y plane, height h."""

    d = 3

    def __init__(self, r: float, h: float):
        self.r = float(r)
        self.h = float(h)

    def contains(self, pts):
        pts = np.asarray(pts, float)
        xy = (pts[..., 0] ** 2 + pts[..., 1] ** 2) <= self.r**2
        return xy & (np.abs(pts[..., 2]) <= self.h / 2.0)

    def volume(self):
        return math.pi * self.r**2 * self.h

    def support(self, n):
        n = np.asarray(n, float)
        return self.r * float(math.hypot(n[0], n[1])) + 0.5 * self.h * abs(float(n[2]))

    def contains_scaled(self, pts, scale, shift):
        scale = np.asarray(scale, float)
        pts = np.asarray(pts, float) + shift
        if scale[0] == scale[1]:
            rad = scale[0] * self.r
            xy = pts[..., 0] ** 2 + pts[..., 1] ** 2 <= rad * rad
        else:
            xy = (pts[..., 0] / scale[0]) ** 2 + (pts[..., 1] / scale[1]) ** 2 <= self.r**2
        return xy & (np.abs(pts[..., 2]) <= scale[2] * self.h / 2.0)

    def set_cov_exact(self, x):
        x = np.asarray(x, float)
        disk = _Ball(2, self.r).set_cov_exact(x[:2])
        return disk * max(0.0, self.h - abs(float(x[2])))

    def boundary_rate(self, lags):
        lags = np.asarray(lags, float)
        side = 2.0 * self.h * self.r * np.hypot(lags[..., 0], lags[..., 1])
        return side + math.pi * self.r**2 * np.abs(lags[..., 2])


class _AffineMap(_Geometry):
    """A template geometry pushed through an invertible linear map.

    Used by the affine-invariance checks; not part of the registered shape
    catalog, so it skips the unit-cube validation.
    """

    def __init__(self, base: _Geometry, mat: np.ndarray):
        self.base = base
        self.mat = np.asarray(mat, float)
        self.d = base.d
        self.inv = np.linalg.inv(self.mat)
        self.det = abs(float(np.linalg.det(self.mat)))

    def contains(self, pts):
        pts = np.asarray(pts, float)
        return self.base.contains(pts @ self.inv.T)

    def volume(self):
        return self.det * self.base.volume()

    def support(self, n):
        return self.base.support(self.mat.T @ np.asarray(n, float))

    def set_cov_exact(self, x):
        return self.det * self.base.set_cov_exact(self.inv @ np.asarray(x, float))

    def boundary_rate(self, lags):
        return self.det * self.base.boundary_rate(_project(lags, self.inv))


def _project(lags, vecs):
    """k.v for each lag k and row v of ``vecs``, shape (..., m); elementwise, not
    a matmul, so a lag's value does not depend on how many lags share the call."""
    return (np.asarray(lags, float)[..., None, :] * vecs).sum(axis=-1)


def _clip_halfplane(poly, n, c):
    """Keep the part of a convex polygon with n.x <= c (Sutherland-Hodgman step)."""
    out = []
    m = len(poly)
    for i in range(m):
        a = poly[i]
        b = poly[(i + 1) % m]
        da = float(np.dot(n, a)) - c
        db = float(np.dot(n, b)) - c
        if da <= 0.0:
            out.append(a)
        if (da < 0.0 < db) or (db < 0.0 < da):
            t = da / (da - db)
            out.append(a + t * (b - a))
    return out


def _poly_intersection_area(pa, pb):
    """Area of the intersection of two convex CCW polygons."""
    cur = [np.asarray(v, float) for v in pa]
    m = len(pb)
    for i in range(m):
        a = pb[i]
        b = pb[(i + 1) % m]
        e = b - a
        n = np.array([e[1], -e[0]])
        cur = _clip_halfplane(cur, n, float(np.dot(n, a)))
        if len(cur) < 3:
            return 0.0
    p = np.asarray(cur)
    x, y = p[:, 0], p[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


# ---------------------------------------------------------------------------
# templates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Template:
    """A convex prototype set in ``(-1/2, 1/2]^d`` with a fixed boundary rule.

    Half-open boundaries (matching the unit cube convention) for the hypercube,
    rectangles, triangles, trapezoid and parallelogram; closed boundaries for
    the circle, sphere, cylinder and hexagon.
    """

    kind: str
    d: int
    params: tuple = ()
    geom: _Geometry = field(repr=False, compare=False, default=None)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def hypercube(d: int) -> "Template":
        if d < 1:
            raise ConfigError("hypercube needs d >= 1")
        return Template("hypercube", d, (("d", d),), _Box(d))

    @staticmethod
    def circle(r: float) -> "Template":
        if not 0.0 < r <= 0.5:
            raise ConfigError("circle needs 0 < r <= 1/2")
        return Template("circle", 2, (("r", r),), _Ball(2, r))

    @staticmethod
    def sphere(r: float) -> "Template":
        if not 0.0 < r <= 0.5:
            raise ConfigError("sphere needs 0 < r <= 1/2")
        return Template("sphere", 3, (("r", r),), _Ball(3, r))

    @staticmethod
    def rotated_rectangle(theta: float, l1: float, l2: float) -> "Template":
        """Axis rectangle of side lengths l1 x l2 rotated clockwise by theta."""
        if not (0.0 <= theta <= math.pi):
            raise ConfigError("rotated rectangle needs theta in [0, pi]")
        if l1 <= 0 or l2 <= 0:
            raise ConfigError("rotated rectangle needs positive side lengths")
        c, s = rotation_cos_sin(theta)
        mat = np.array([[l1 * c, l2 * s], [-l1 * s, l2 * c]])
        corners = 0.5 * np.array([[-1, -1], [1, -1], [1, 1], [-1, 1]], float)
        verts = corners @ mat.T
        _require_in_unit_cube(verts)
        # image of the half-open square: the two edges through the corner
        # (1/2, 1/2) stay included, the other two stay excluded
        closed = [False, True, True, False]
        verts, closed = _ccw(verts, closed)
        return Template(
            "rotated-rectangle",
            2,
            (("theta", theta), ("l1", l1), ("l2", l2)),
            _Rect2(verts, closed, axes=[[c, -s], [s, c]], sides=[l1, l2]),
        )

    @staticmethod
    def right_triangle() -> "Template":
        """Legs of length 1 on the lower-left sides of the unit cell."""
        verts = np.array([[-0.5, -0.5], [0.5, -0.5], [-0.5, 0.5]])
        closed = [False, True, False]  # hypotenuse included, legs excluded
        return Template("right-triangle", 2, (), _Poly2(verts, closed))

    @staticmethod
    def isoceles_triangle() -> "Template":
        """Base of length 1 at the bottom edge, apex at the top center."""
        verts = np.array([[-0.5, -0.5], [0.5, -0.5], [0.0, 0.5]])
        closed = [False, True, True]  # slanted sides included, base excluded
        return Template("isoceles-triangle", 2, (), _Poly2(verts, closed))

    @staticmethod
    def trapezoid(b1: float, b2: float) -> "Template":
        """Right trapezoid: parallel vertical sides of lengths b1 <= b2, unit width."""
        if not 0.0 < b1 <= b2 <= 1.0:
            raise ConfigError("trapezoid needs 0 < b1 <= b2 <= 1")
        y0 = -b2 / 2.0
        verts = np.array(
            [[-0.5, y0], [0.5, y0], [0.5, y0 + b1], [-0.5, y0 + b2]]
        )
        closed = [False, True, True, False]
        return Template("trapezoid", 2, (("b1", b1), ("b2", b2)), _Poly2(verts, closed))

    @staticmethod
    def regular_hexagon(l: float) -> "Template":
        """Regular hexagon with side l, two vertices on the x axis."""
        if not 0.0 < l <= 0.5:
            raise ConfigError("hexagon needs 0 < l <= 1/2")
        ang = np.pi / 3.0 * np.arange(6)
        verts = l * np.stack([np.cos(ang), np.sin(ang)], axis=1)
        return Template("regular-hexagon", 2, (("l", l),), _Poly2(verts, [True] * 6))

    @staticmethod
    def parallelogram(gamma: float, l1: float, l2: float) -> "Template":
        """Parallelogram spanned by (l1, 0) and l2*(cos gamma, sin gamma), centered."""
        if not 0.0 < gamma < math.pi:
            raise ConfigError("parallelogram needs gamma in (0, pi)")
        if l1 <= 0 or l2 <= 0:
            raise ConfigError("parallelogram needs positive side lengths")
        v1 = np.array([l1, 0.0])
        v2 = np.array([l2 * math.cos(gamma), l2 * math.sin(gamma)])
        verts = 0.5 * np.array([-(v1 + v2), v1 - v2, v1 + v2, v2 - v1])
        _require_in_unit_cube(verts)
        verts, closed = _ccw(verts, [False, True, True, False])
        return Template(
            "parallelogram",
            2,
            (("gamma", gamma), ("l1", l1), ("l2", l2)),
            _Poly2(verts, closed),
        )

    @staticmethod
    def cylinder(r: float, h: float) -> "Template":
        if not 0.0 < r <= 0.5:
            raise ConfigError("cylinder needs 0 < r <= 1/2")
        if not 0.0 < h <= 1.0:
            raise ConfigError("cylinder needs 0 < h <= 1")
        return Template("cylinder", 3, (("r", r), ("h", h)), _Cylinder(r, h))

    # -- queries ------------------------------------------------------------

    @property
    def param_dict(self) -> dict:
        return dict(self.params)

    def volume(self) -> float:
        return self.geom.volume()

    def diameter(self) -> float:
        return self.geom.diameter()

    def spec_string(self) -> str:
        if not self.params:
            return _KIND_TO_TOKEN[self.kind]
        args = ",".join(f"{k}={_fmt_param(v)}" for k, v in self.params)
        return f"{_KIND_TO_TOKEN[self.kind]}:{args}"


def _fmt_param(v):
    return format(v, "g")


_EXACT_ANGLES = (
    (0.0, 1.0, 0.0),
    (math.pi / 4, math.sqrt(0.5), math.sqrt(0.5)),
    (math.pi / 2, 0.0, 1.0),
    (3 * math.pi / 4, -math.sqrt(0.5), math.sqrt(0.5)),
    (math.pi, -1.0, 0.0),
)


def rotation_cos_sin(theta: float) -> tuple:
    """Rotation cosine/sine, snapped to exact values at the special angles.

    Library sin/cos at the floating representative of pi/4 land one ulp apart,
    which would break exact identities of rotated-rectangle weights (e.g. the
    diamond); both are approximations of the same real 1/sqrt(2).
    """
    for ang, c, s in _EXACT_ANGLES:
        if abs(theta - ang) < 4e-16:
            return c, s
    return math.cos(theta), math.sin(theta)


def _ccw(verts, closed):
    """Reorder vertices counterclockwise, keeping edge flags aligned."""
    x, y = verts[:, 0], verts[:, 1]
    signed = 0.5 * (np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))
    if signed < 0:
        n = len(verts)
        verts = verts[::-1].copy()
        # edge i: old edge between old vertices (n-1-i) and (n-i)%n
        closed = [closed[(n - 1 - i) % n] for i in range(n)]
    return verts, closed


def _require_in_unit_cube(verts):
    if np.any(np.abs(verts) > 0.5 + _EQ_TOL):
        raise ConfigError("template does not fit inside (-1/2, 1/2]^d")


_AFFINE_SUFFIX = "(affine)"


def affine_image(template: Template, mat) -> Template:
    """Template pushed through an invertible linear map (diagnostics only).

    The image is not validated against the unit cube, so it cannot be used to
    build regions or subsample specs; it exists for invariance checks of the
    numeric constants.
    """
    geom = template.geom
    mat = np.asarray(mat, float)
    if isinstance(geom, _Poly2):
        verts = geom.verts @ mat.T
        verts, closed = _ccw(verts.copy(), list(geom.closed))
        new_geom = _Poly2(verts, closed)
    else:
        new_geom = _AffineMap(geom, mat)
    return Template(template.kind + _AFFINE_SUFFIX, template.d, template.params, new_geom)


def _require_region_template(template: Template) -> None:
    # Template equality ignores the geometry, so two affine images of one
    # template compare equal; regions and specs are cache keys of designs.
    if template.kind.endswith(_AFFINE_SUFFIX):
        raise ConfigError("affine template images cannot be used to build regions")


# -- template mini-grammar ---------------------------------------------------

_KIND_TO_TOKEN = {
    "hypercube": "hypercube",
    "rotated-rectangle": "rotrect",
    "circle": "circle",
    "right-triangle": "righttri",
    "isoceles-triangle": "isotri",
    "trapezoid": "trapezoid",
    "regular-hexagon": "hex",
    "parallelogram": "parallelogram",
    "sphere": "sphere",
    "cylinder": "cylinder",
}

_TOKEN_BUILDERS = {
    "hypercube": (Template.hypercube, {"d": int}),
    "rotrect": (Template.rotated_rectangle, {"theta": float, "l1": float, "l2": float}),
    "circle": (Template.circle, {"r": float}),
    "righttri": (Template.right_triangle, {}),
    "isotri": (Template.isoceles_triangle, {}),
    "trapezoid": (Template.trapezoid, {"b1": float, "b2": float}),
    "hex": (Template.regular_hexagon, {"l": float}),
    "parallelogram": (
        Template.parallelogram,
        {"gamma": float, "l1": float, "l2": float},
    ),
    "sphere": (Template.sphere, {"r": float}),
    "cylinder": (Template.cylinder, {"r": float, "h": float}),
}


def parse_template(spec: str) -> Template:
    """Parse a template spec string, e.g. ``hypercube:d=2`` or ``circle:r=0.5``."""
    spec = spec.strip()
    token, _, argstr = spec.partition(":")
    token = token.lower()
    if token not in _TOKEN_BUILDERS:
        raise ConfigError(f"unknown template kind {token!r}")
    builder, schema = _TOKEN_BUILDERS[token]
    kwargs = {}
    if argstr:
        for part in argstr.split(","):
            key, _, val = part.partition("=")
            key = key.strip()
            if key not in schema:
                raise ConfigError(f"unknown parameter {key!r} for template {token!r}")
            try:
                kwargs[key] = schema[key](val)
            except ValueError as exc:
                raise ConfigError(f"bad value for {key!r}: {val!r}") from exc
    missing = set(schema) - set(kwargs)
    if missing:
        raise ConfigError(f"template {token!r} missing parameters {sorted(missing)}")
    return builder(**kwargs)


# ---------------------------------------------------------------------------
# basic operations
# ---------------------------------------------------------------------------


def contains(template: Template, point) -> bool:
    """Membership of a point in the template under its boundary rule."""
    point = np.asarray(point, float)
    if point.shape != (template.d,):
        raise DimensionMismatch(
            f"point has shape {point.shape}, template is {template.d}-dimensional"
        )
    if not np.all(np.isfinite(point)):
        raise DimensionMismatch("point must be finite")
    return bool(template.geom.contains(point[None, :])[0])


def set_covariance(template: Template, x, resolution: float | None = None) -> float:
    """Volume of the template intersected with its translate by ``x``.

    Grid quadrature with the cell-center rule; the hypercube uses its exact
    product formula.  Default steps are 1/512 for d <= 2 and 1/96 for d = 3.
    """
    x = np.asarray(x, float)
    if x.shape != (template.d,):
        raise DimensionMismatch("shift dimension mismatch")
    geom = template.geom
    if isinstance(geom, _Box):
        return geom.set_cov_exact(x)
    if resolution is None:
        resolution = 1.0 / 512 if template.d <= 2 else 1.0 / 96
    if resolution <= 0:
        raise ConfigError("resolution must be positive")
    lo, shape = _grid(geom, resolution)
    centers = _cell_centers(lo, shape, resolution, 0, shape[0])
    inside = geom.contains(centers)
    both = inside & geom.contains(centers - x)
    return float(both.sum()) * resolution**template.d


def set_covariance_exact(template: Template, x) -> float:
    """Closed-form set covariance (product, lens or clipped-polygon formulas)."""
    x = np.asarray(x, float)
    if x.shape != (template.d,):
        raise DimensionMismatch("shift dimension mismatch")
    return float(template.geom.set_cov_exact(x))


def box_points(lo, hi) -> np.ndarray:
    """Integer points of the box ``lo <= x <= hi``, shape (n, d), last axis fastest."""
    axes = [np.arange(a, b + 1) for a, b in zip(lo, hi)]
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


def _grid(geom: _Geometry, h: float):
    """Lower corner and shape of the step-``h`` cell grid over the bounding box."""
    lo, hi = geom.bbox()
    return lo, [int(math.ceil((hi[j] - lo[j]) / h - 1e-12)) for j in range(geom.d)]


def _cell_centers(lo, shape, h: float, start: int, stop: int) -> np.ndarray:
    """Centers of the grid's cells in first-axis rows ``start`` to ``stop - 1``."""
    tail = [n - 1 for n in shape[1:]]
    centers = box_points([start] + [0] * len(tail), [stop - 1] + tail) + 0.5
    centers *= h  # in place: the grid can hold millions of points
    centers += lo
    return centers


def raster_mask(template: Template, step: float):
    """Cell-center indicator of the template on its bounding-box grid.

    Returns (mask, step); used by the quadrature path of the shape constants.
    The centers are made and tested a block of first-axis rows at a time, so
    the work stays in cache however many cells the grid holds.
    """
    lo, shape = _grid(template.geom, step)
    mask = np.empty(shape)
    block = max(1, _RASTER_BLOCK_CELLS // math.prod(shape[1:]))
    for start in range(0, shape[0], block):
        rows = mask[start:start + block]
        centers = _cell_centers(lo, shape, step, start, start + len(rows))
        rows[...] = template.geom.contains(centers).reshape(rows.shape)
    return mask, step


# ---------------------------------------------------------------------------
# regions and lattice windows
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Region:
    """A template inflated by a positive diagonal scaling, on a shifted lattice."""

    template: Template
    scale: tuple
    shift: tuple = None

    def __post_init__(self):
        _require_region_template(self.template)
        scale = tuple(float(s) for s in np.atleast_1d(np.asarray(self.scale, float)))
        if len(scale) == 1 and self.template.d > 1:
            scale = scale * self.template.d
        if len(scale) != self.template.d:
            raise DimensionMismatch("scaling length must match template dimension")
        if not all(math.isfinite(s) and s > 0 for s in scale):
            raise ConfigError(f"scaling entries must be positive and finite, got {scale}")
        object.__setattr__(self, "scale", scale)
        shift = self.shift
        if shift is None:
            shift = (0.0,) * self.template.d
        shift = tuple(float(t) for t in np.atleast_1d(np.asarray(shift, float)))
        if len(shift) != self.template.d:
            raise DimensionMismatch("shift length must match template dimension")
        if any(abs(t) > 0.5 for t in shift):
            raise ConfigError("lattice shift must lie in [-1/2, 1/2]^d")
        object.__setattr__(self, "shift", shift)

    @property
    def d(self) -> int:
        return self.template.d

    def det_scale(self) -> float:
        return float(np.prod(self.scale))

    def volume(self) -> float:
        return self.template.volume() * self.det_scale()


@dataclass(frozen=True, eq=False)
class LatticeWindow:
    """Ordered integer lattice sites of a region (shift already subtracted).

    Windows are equal, and hash alike, when their site arrays are equal, so
    a window read from a file matches the one ``lattice_sites`` builds.
    """

    sites: np.ndarray  # (N, d) int64, lexicographically sorted
    lo: np.ndarray
    hi: np.ndarray

    @property
    def n_sites(self) -> int:
        return self.sites.shape[0]

    @property
    def d(self) -> int:
        return self.sites.shape[1]

    @property
    def span(self) -> np.ndarray:
        """Sites per axis of the bounding box."""
        return self.hi - self.lo + 1

    @cached_property
    def content_key(self) -> tuple:
        """(dtype, shape, bytes) of the sites, built once per window; equal
        for windows with equal site arrays."""
        return (self.sites.dtype.str, self.sites.shape, self.sites.tobytes())

    def __eq__(self, other) -> bool:
        if not isinstance(other, LatticeWindow):
            return NotImplemented
        return self.content_key == other.content_key

    def __hash__(self) -> int:
        return hash(self.content_key)

    def indexer(self) -> "WindowIndexer":
        return WindowIndexer(self)


class WindowIndexer:
    """Dense site -> row lookup over a window's bounding box."""

    def __init__(self, window: LatticeWindow):
        self.lo = window.lo
        self.table = np.full(tuple(window.span), -1, dtype=np.int64)
        idx = tuple((window.sites - self.lo).T)
        self.table[idx] = np.arange(window.n_sites)

    def lookup(self, sites: np.ndarray) -> np.ndarray:
        """Row indices for integer sites; -1 where a site is outside the window."""
        sites = np.asarray(sites, np.int64)
        rel = sites - self.lo
        shape = self.table.shape
        ok = np.all((rel >= 0) & (rel < np.array(shape)), axis=-1)
        out = np.full(sites.shape[:-1], -1, dtype=np.int64)
        if np.any(ok):
            sel = tuple(rel[ok].T)
            out[ok] = self.table[sel]
        return out


def lattice_sites(region: Region) -> LatticeWindow:
    """All sites of the shifted integer lattice inside the inflated region."""
    geom = region.template.geom
    scale = np.asarray(region.scale)
    shift = np.asarray(region.shift)
    lo_f, hi_f = geom.bbox()
    lo = np.ceil(lo_f * scale - shift - _EQ_TOL).astype(np.int64)
    hi = np.floor(hi_f * scale - shift + _EQ_TOL).astype(np.int64)
    cand = box_points(lo, hi)
    inside = geom.contains_scaled(cand, scale, shift)
    sites = cand[inside]
    if sites.shape[0] == 0:
        raise EmptyWindow("region contains no lattice sites")
    return LatticeWindow(
        sites=sites, lo=sites.min(axis=0), hi=sites.max(axis=0)
    )


def overlap_count(template: Template, s_lambda: float, k, shift=None) -> int:
    """Number of lattice sites in the scaled template shared with its k-translate."""
    if s_lambda <= 0:
        raise ConfigError("scale must be positive")
    k = np.asarray(k, np.int64)
    if k.shape != (template.d,):
        raise DimensionMismatch("lag dimension mismatch")
    region = Region(template, (float(s_lambda),) * template.d, shift)
    try:
        window = lattice_sites(region)
    except EmptyWindow:
        return 0
    present = set(map(tuple, window.sites.tolist()))
    shifted = window.sites - k
    return sum(1 for z in map(tuple, shifted.tolist()) if z in present)


# ---------------------------------------------------------------------------
# subsample designs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubsampleSpec:
    """Subsample template, scalar scale and scheme (``ol`` or ``nol``)."""

    template: Template
    s_lambda: float
    scheme: str = OL

    def __post_init__(self):
        _require_region_template(self.template)
        if self.scheme not in (OL, NOL):
            raise ConfigError("scheme must be 'ol' or 'nol'")
        if not (math.isfinite(self.s_lambda) and self.s_lambda > 0):
            raise ConfigError(f"subsample scale must be positive and finite, got {self.s_lambda}")

    def is_integer_scale(self) -> bool:
        return abs(self.s_lambda - round(self.s_lambda)) <= _EQ_TOL


@dataclass(frozen=True)
class SubsampleIndexSet:
    """Enumerated subsample offsets plus per-subsample site counts.

    ``base`` holds the sites of the scaled template at offset 0 when every
    subsample is them moved (by its offset for OL, by the scale times it
    for integer NOL), and is None otherwise; ``copies`` then holds each
    subsample's sites, in offset order.
    """

    scheme: str
    offsets: np.ndarray  # (M, d) int64, lexicographic
    counts: np.ndarray  # (M,) int64 site counts (equal across OL offsets)
    base: np.ndarray | None = None  # (sN, d) int64
    copies: tuple | None = None  # M arrays (count_m, d) int64

    @property
    def n_subsamples(self) -> int:
        return self.offsets.shape[0]


def anchor_slices(cells, step: int, shape) -> tuple:
    """Per site of a pattern at ``cells``, the slices of a box that hold it
    moved to every anchor ``step * j``, ``0 <= j < shape``."""
    return tuple(
        tuple(slice(b, b + step * (n - 1) + 1, step) for b, n in zip(site, shape))
        for site in np.asarray(cells).tolist()
    )


def erode(mask: np.ndarray, cells, step: int, shape) -> np.ndarray:
    """The erosion of ``mask`` by a pattern at the anchors of ``anchor_slices``:
    the AND of one strided slice of the mask per site, each inside its box."""
    ok = np.ones(shape, bool)
    for cut in anchor_slices(cells, step, shape):
        ok &= mask[cut]
    return ok


def enumerate_ol(region: Region, spec: SubsampleSpec) -> SubsampleIndexSet:
    """All integer translates of the scaled subsample template inside the region.

    A translate is admitted when every sampling site of the scaled template
    copy is a site of the region window.  The admitted offsets are the
    erosion of the window's site mask by the template's site pattern: over
    the box of offsets that keep the pattern's bounding box inside the
    mask's, the AND of one strided slice of the mask per pattern site.  All
    overlapping subsamples share one site count.
    """
    if spec.scheme != OL:
        raise ConfigError("enumerate_ol needs an OL spec")
    sub_region = Region(spec.template, (spec.s_lambda,) * region.d, region.shift)
    base = lattice_sites(sub_region).sites
    none_fit = "no subsample translate fits inside the region"
    try:
        window = lattice_sites(region)
    except EmptyWindow:
        raise EmptySubsampleSet(none_fit) from None
    rel = base - base.min(axis=0)
    shape = np.maximum(window.span - rel.max(axis=0), 0).tolist()
    ok = erode(window.indexer().table >= 0, rel, 1, shape)
    offsets = window.lo - base.min(axis=0) + np.argwhere(ok)
    if offsets.shape[0] == 0:
        raise EmptySubsampleSet(none_fit)
    counts = np.full(offsets.shape[0], base.shape[0], dtype=np.int64)
    return SubsampleIndexSet(scheme=OL, offsets=offsets, counts=counts, base=base)


def warn_non_integer_scale() -> None:
    """Warn, at the caller's caller, that a NOL design uses a non-integer scale."""
    warnings.warn(
        "non-integer NOL scale: subsample site counts may differ and the "
        "bias/scaling theory assumes integers",
        NonIntegerScaleWarning,
        stacklevel=3,
    )


def enumerate_nol(region: Region, spec: SubsampleSpec) -> SubsampleIndexSet:
    """Disjoint scaled cubes inside the region, each holding a template copy.

    Cube i covers the sites of the scaled half-open cell centered at
    ``s_lambda * i``; it is admitted when it holds a site and all of its
    sites belong to the region window.  All cubes are tested at once: each
    cube's sites are its low corner plus a point of one common block, less
    the block points past the cube's own high corner.

    With ``s_lambda * i = n + f`` and ``n = floor(s_lambda * i)``, copy i
    is the pattern of ``f`` (the scaled sub-template's sites at lattice
    shift ``shift - f``) moved by ``n``; all patterns are tested at once.
    At an integer scale ``f = 0``: each copy is one base moved by
    ``s_lambda * i``, and an empty base raises ``EmptyWindow``.  At other
    scales copies may differ in site count, and may be empty.
    """
    if spec.scheme != NOL:
        raise ConfigError("enumerate_nol needs a NOL spec")
    if not spec.is_integer_scale():
        warn_non_integer_scale()
    s_lam = spec.s_lambda
    scale = np.asarray(region.scale)
    shift = np.asarray(region.shift)
    geom = region.template.geom
    lo_f, hi_f = geom.bbox()
    lo = np.floor(lo_f * scale / s_lam - 1).astype(np.int64)
    hi = np.ceil(hi_f * scale / s_lam + 1).astype(np.int64)
    cand = box_points(lo, hi)
    center = s_lam * cand.astype(float)
    slo = np.ceil(center - s_lam / 2.0 - shift + _EQ_TOL).astype(np.int64)
    span = np.floor(center + s_lam / 2.0 - shift + _EQ_TOL).astype(np.int64) - slo
    block = box_points([0] * region.d, span.max(axis=0))
    in_cube = np.all(block <= span[:, None, :], axis=-1)  # (cubes, block points)
    inside = geom.contains_scaled(slo[:, None, :] + block, scale, shift)
    keep = in_cube.any(axis=1) & np.all(inside | ~in_cube, axis=1)
    offsets = cand[keep]
    if offsets.shape[0] == 0:
        raise EmptySubsampleSet("no partitioning cube fits inside the region")
    sub = spec.template.geom
    if spec.is_integer_scale():
        block, inside = _copy_patterns(sub, s_lam, shift, np.zeros((1, region.d)))
        base = block[inside[0]]
        if base.shape[0] == 0:
            raise EmptyWindow("region contains no lattice sites")
        counts = np.full(offsets.shape[0], base.shape[0], dtype=np.int64)
        return SubsampleIndexSet(scheme=NOL, offsets=offsets, counts=counts, base=base)
    corner = s_lam * offsets.astype(float)
    fracs, which = np.unique(corner - np.floor(corner), axis=0, return_inverse=True)
    # numpy 2.0.0 returns ``which`` as a column; its entries are the copies' either way
    block, inside = _copy_patterns(sub, s_lam, shift, fracs)
    copy, point = np.nonzero(inside[which.reshape(-1)])  # copy-major, each in block order
    sites = block[point] + np.floor(corner).astype(np.int64)[copy]
    counts = np.bincount(copy, minlength=offsets.shape[0])
    copies = tuple(np.split(sites, np.cumsum(counts)[:-1]))
    return SubsampleIndexSet(scheme=NOL, offsets=offsets, counts=counts, copies=copies)


def _copy_patterns(geom: _Geometry, s_lam: float, shift, fracs):
    """A common block of sites, and which of them the ``s_lam``-scaled
    template holds at lattice shift ``shift - f`` for each row f of
    ``fracs`` (F, d) in [0, 1): a (F, block) mask from one membership test."""
    lo_f, hi_f = geom.bbox()
    lo = np.ceil(s_lam * lo_f - shift + fracs.min(axis=0) - _EQ_TOL).astype(np.int64)
    hi = np.floor(s_lam * hi_f - shift + fracs.max(axis=0) + _EQ_TOL).astype(np.int64)
    block = box_points(lo, hi)
    return block, geom.contains_scaled(block, (s_lam,) * geom.d, (shift - fracs)[:, None, :])

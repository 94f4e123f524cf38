"""Legacy ASCII VTK export of quad meshes and attached fields."""

import numpy as np

__all__ = ["write_vtk"]


def write_vtk(path, mesh, point_data=None, cell_data=None, title="quad mesh"):
    """Write a quad mesh as a legacy VTK unstructured grid (cell type 9).

    point_data and cell_data map field names to arrays of per-node and
    per-cell scalars. The title line carries provenance (truncated to the
    255-character format limit).
    """
    n = mesh.num_nodes
    m = mesh.num_cells
    with open(path, "w") as f:
        f.write("# vtk DataFile Version 3.0\n")
        f.write(title[:255] + "\n")
        f.write("ASCII\nDATASET UNSTRUCTURED_GRID\n")
        f.write(f"POINTS {n} double\n")
        np.savetxt(f, mesh.nodes, fmt="%.12e %.12e 0.0")
        f.write(f"CELLS {m} {5 * m}\n")
        np.savetxt(f, mesh.cells, fmt="4 %d %d %d %d")
        f.write(f"CELL_TYPES {m}\n")
        np.savetxt(f, np.full(m, 9), fmt="%d")
        for kind, count, fields in (("point", n, point_data), ("cell", m, cell_data)):
            if not fields:
                continue
            f.write(f"{kind.upper()}_DATA {count}\n")
            for name, vals in fields.items():
                vals = np.asarray(vals, dtype=float)
                if vals.shape[0] != count:
                    raise ValueError(f"{kind} data {name!r} has wrong length")
                f.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
                np.savetxt(f, vals, fmt="%.12e")

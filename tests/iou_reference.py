"""Scalar intersection over union: the reference the IoU kernel and the
metric oracles are checked against."""


def iou(a, b) -> float:
    """IoU of two boxes; 0 when disjoint or only touching, 1 when identical."""
    ix = min(a.x2, b.x2) - max(a.x, b.x)
    iy = min(a.y2, b.y2) - max(a.y, b.y)
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    return inter / (a.area + b.area - inter)

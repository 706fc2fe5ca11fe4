/* The 3D sample application: each point is transformed by a 3x4 affine
 * matrix, one output coordinate per matrix row.  The row's operands are
 * loaded into locals first, so the row is one t3d expression. */
#include <stdint.h>

struct point { int16_t x, y, z; };

void transform(const int16_t m[3][3], const int32_t t[3],
               const struct point *p, int32_t (*out)[3], int n)
{
    for (int i = 0; i < n; i++) {
        int16_t px = p[i].x, py = p[i].y, pz = p[i].z;
        for (int row = 0; row < 3; row++) {
            int16_t m0 = m[row][0], m1 = m[row][1], m2 = m[row][2];
            int32_t tt = t[row];
            int32_t r = m0*px + m1*py + m2*pz + tt;
            out[i][row] = r;
        }
    }
}
